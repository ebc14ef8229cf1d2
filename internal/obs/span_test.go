package obs

import (
	"context"
	"testing"
	"time"
)

func TestSpanTreeAssembly(t *testing.T) {
	tr := NewTrace("req-1")
	ctx, root := tr.StartRoot(context.Background(), "GET /q/")
	root.SetAttr("path", "/q/2014Q1/api/signals")

	ctx2, load := StartSpan(ctx, "store_load")
	load.SetAttr("cache", "lru_miss")
	_, dec := StartSpan(ctx2, "snapshot_decode")
	dec.SetInt("bytes", 4096)
	dec.End()
	load.End()

	_, render := StartSpan(ctx, "render:index")
	render.End()
	root.End()

	rec := tr.Snapshot()
	if rec.ID != "req-1" || rec.Name != "GET /q/" {
		t.Fatalf("trace identity = %q %q", rec.ID, rec.Name)
	}
	if len(rec.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(rec.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range rec.Spans {
		byName[s.Name] = s
	}
	rootRec := byName["GET /q/"]
	if rootRec.Parent != -1 {
		t.Errorf("root parent = %d, want -1", rootRec.Parent)
	}
	if byName["store_load"].Parent != rootRec.ID {
		t.Errorf("store_load parent = %d, want root %d", byName["store_load"].Parent, rootRec.ID)
	}
	if byName["snapshot_decode"].Parent != byName["store_load"].ID {
		t.Errorf("decode parent = %d, want load %d",
			byName["snapshot_decode"].Parent, byName["store_load"].ID)
	}
	if byName["render:index"].Parent != rootRec.ID {
		t.Errorf("render parent = %d, want root %d", byName["render:index"].Parent, rootRec.ID)
	}
	if byName["store_load"].Attrs["cache"] != "lru_miss" {
		t.Errorf("cache attr = %q", byName["store_load"].Attrs["cache"])
	}
	if byName["snapshot_decode"].Attrs["bytes"] != "4096" {
		t.Errorf("bytes attr = %q", byName["snapshot_decode"].Attrs["bytes"])
	}
	if rec.DurationNS <= 0 {
		t.Errorf("trace duration = %d", rec.DurationNS)
	}
}

func TestStartSpanWithoutTraceNoOps(t *testing.T) {
	ctx := context.Background()
	ctx2, span := StartSpan(ctx, "orphan")
	if span != nil {
		t.Fatal("expected nil span on a context without a trace")
	}
	if ctx2 != ctx {
		t.Error("context should be returned unchanged")
	}
	// Every method must be nil-safe.
	span.SetAttr("k", "v")
	span.SetInt("n", 1)
	span.End()
	if got := ActiveSpan(ctx); got != nil {
		t.Errorf("ActiveSpan = %v, want nil", got)
	}
}

// TestDisabledSpanZeroAllocs is the acceptance criterion: threading
// StartSpan through an untraced call path must be free.
func TestDisabledSpanZeroAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		c, span := StartSpan(ctx, "disabled")
		span.SetAttr("k", "v")
		span.SetInt("n", 42)
		span.End()
		_ = c
	})
	if allocs != 0 {
		t.Errorf("disabled span path allocates %.1f objects per op, want 0", allocs)
	}
}

func TestSnapshotWithoutRootUsesSpanExtent(t *testing.T) {
	tr := NewTrace("partial")
	ctx, _ := tr.StartRoot(context.Background(), "never ended")
	_, child := StartSpan(ctx, "child")
	time.Sleep(time.Millisecond)
	child.End()
	rec := tr.Snapshot() // root still in flight
	if len(rec.Spans) != 1 {
		t.Fatalf("spans = %d, want 1 (only the child completed)", len(rec.Spans))
	}
	if rec.DurationNS <= 0 {
		t.Error("extent fallback duration not computed")
	}
}

func TestRequestIDGeneration(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Error("request IDs must differ")
	}
	for _, id := range []string{a, b} {
		if len(id) != 16 || !ValidRequestID(id) {
			t.Errorf("generated ID %q not 16 valid hex chars", id)
		}
	}
}

func TestValidRequestID(t *testing.T) {
	valid := []string{"abc123", "trace-7f", "A_b.c:d/e", "x"}
	for _, s := range valid {
		if !ValidRequestID(s) {
			t.Errorf("ValidRequestID(%q) = false, want true", s)
		}
	}
	invalid := []string{"", "has space", "quo\"te", "new\nline", "tab\there",
		string(make([]byte, 129)), "\x7f", "héllo"}
	for _, s := range invalid {
		if ValidRequestID(s) {
			t.Errorf("ValidRequestID(%q) = true, want false", s)
		}
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, span := StartSpan(ctx, "disabled")
		span.SetInt("n", int64(i))
		span.End()
		_ = c
	}
}

func BenchmarkActiveSpan(b *testing.B) {
	tr := NewTrace("bench")
	ctx, root := tr.StartRoot(context.Background(), "root")
	defer root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, span := StartSpan(ctx, "child")
		span.SetInt("n", int64(i))
		span.End()
		_ = c
		if i&0xffff == 0xffff {
			// Bound trace growth so a long -benchtime run stays flat.
			tr.mu.Lock()
			tr.spans = tr.spans[:0]
			tr.mu.Unlock()
		}
	}
}
