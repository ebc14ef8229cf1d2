package obs

import (
	"bytes"
	"context"
	"log/slog"
	"runtime/pprof"
	"testing"
)

// count runs fn as a Do unit on tr with no active span.
func count(tr *Tracer, name string, fn func(st *Stage)) {
	Do(context.Background(), tr, name, func(_ context.Context, st *Stage) { fn(st) })
}

func TestTracerRecordsStagesInOrder(t *testing.T) {
	tr := NewTracer(nil)
	for _, name := range []string{"clean", "encode", "mine"} {
		count(tr, StageSpanPrefix+name, func(st *Stage) {
			st.Count("items", 3)
			st.Count("items", 4)
		})
	}
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	wantNames := []string{"clean", "encode", "mine"}
	for i, r := range recs {
		if r.Name != wantNames[i] {
			t.Errorf("record %d name = %q, want %q", i, r.Name, wantNames[i])
		}
		if r.Seq != i+1 {
			t.Errorf("record %d seq = %d, want %d", i, r.Seq, i+1)
		}
		if r.Counters["items"] != 7 {
			t.Errorf("record %d items = %d, want 7 (Count must accumulate)", i, r.Counters["items"])
		}
		if r.DurationNS < 0 {
			t.Errorf("record %d negative duration", i)
		}
	}
}

func TestTracerAllocAttribution(t *testing.T) {
	tr := NewTracer(nil)
	count(tr, "alloc-heavy", func(*Stage) {
		sink := make([][]byte, 0, 64)
		for i := 0; i < 64; i++ {
			sink = append(sink, make([]byte, 4096))
		}
		_ = sink
	})
	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].AllocBytes < 64*4096/2 {
		t.Errorf("alloc_bytes = %d, want a substantial fraction of the %d bytes allocated",
			recs[0].AllocBytes, 64*4096)
	}
}

func TestNilTracerSafeAndRecordsNil(t *testing.T) {
	var tr *Tracer
	count(tr, "x", func(st *Stage) {
		if st != nil {
			t.Error("untraced, unspanned unit got a stage")
		}
		st.Count("c", 1)
	})
	if recs := tr.Records(); recs != nil {
		t.Errorf("nil tracer records = %v, want nil", recs)
	}
	if tr.Len() != 0 || tr.TotalDuration() != 0 {
		t.Errorf("nil tracer len %d, total %v", tr.Len(), tr.TotalDuration())
	}
}

// The pipeline threads the tracer unconditionally, so the disabled
// path must cost no more than the pprof label it runs under, and
// counting on the nil stage must be free.
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	bare := testing.AllocsPerRun(200, func() {
		pprof.Do(ctx, pprof.Labels(LabelStage, "stage"), func(context.Context) {})
	})
	do := testing.AllocsPerRun(200, func() {
		Do(ctx, tr, "stage", func(_ context.Context, st *Stage) {
			st.Count("counter", 42)
		}, LabelStage, "stage")
	})
	if do != bare {
		t.Errorf("untraced Do allocates %.1f per op, bare pprof.Do %.1f", do, bare)
	}
	var st *Stage
	if allocs := testing.AllocsPerRun(200, func() { st.Count("counter", 42) }); allocs != 0 {
		t.Errorf("nil stage Count allocates %.1f per op, want 0", allocs)
	}
}

// TestDoSpanCarriesCounters: under an active span Do opens a live
// child named after the unit, hands fn its context, and ends it with
// the counters and the allocation volume as attributes; without a
// tracer there is no record.
func TestDoSpanCarriesCounters(t *testing.T) {
	trace := NewTrace("req")
	ctx, root := trace.StartRoot(context.Background(), "GET /")
	Do(ctx, nil, "snapshot_decode", func(ctx context.Context, st *Stage) {
		if ActiveSpan(ctx) == nil {
			t.Error("fn's context carries no span")
		}
		st.Count("bytes", 4096)
	})
	root.End()
	spans := trace.Snapshot().Spans
	if len(spans) != 2 {
		t.Fatalf("spans = %+v, want the unit and the root", spans)
	}
	s := spans[0]
	if s.Name != "snapshot_decode" || s.Parent != spans[1].ID {
		t.Errorf("unit span = %+v, want snapshot_decode under the root", s)
	}
	if s.Attrs["bytes"] != "4096" || s.Attrs["alloc_bytes"] == "" {
		t.Errorf("unit span attrs = %v, want bytes=4096 and alloc_bytes", s.Attrs)
	}
}

// TestDoAppliesLabels: fn runs under the given pprof labels, on top of
// the ones its context already carries.
func TestDoAppliesLabels(t *testing.T) {
	ctx := pprof.WithLabels(context.Background(), pprof.Labels(LabelRoute, "/q/"))
	Do(ctx, nil, "watch_evaluate", func(ctx context.Context, _ *Stage) {
		for k, want := range map[string]string{LabelRoute: "/q/", LabelOp: "watch_eval", "quarter": "2014Q1"} {
			if got, _ := pprof.Label(ctx, k); got != want {
				t.Errorf("label %s = %q, want %q", k, got, want)
			}
		}
	}, LabelOp, "watch_eval", "quarter", "2014Q1")
}

func BenchmarkNilTracerStage(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		count(tr, "stage", func(st *Stage) { st.Count("counter", 1) })
	}
}

func BenchmarkLiveTracerStage(b *testing.B) {
	tr := NewTracer(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		count(tr, "stage", func(st *Stage) { st.Count("counter", 1) })
	}
	if n := len(tr.Records()); n != b.N {
		b.Fatalf("recorded %d stages, want %d", n, b.N)
	}
}

func TestTracerLogsStagesAtDebug(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	tr := NewTracer(logger)
	count(tr, StageSpanPrefix+"rank", func(st *Stage) { st.Count("clusters_ranked", 9) })
	out := buf.String()
	for _, want := range []string{"pipeline stage", "stage=rank", "clusters_ranked=9"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("stage log missing %q in %q", want, out)
		}
	}
}

func TestTracerTotalDuration(t *testing.T) {
	tr := NewTracer(nil)
	count(tr, "a", func(*Stage) {})
	count(tr, "b", func(*Stage) {})
	recs := tr.Records()
	if len(recs) != 2 || tr.Len() != 2 {
		t.Fatalf("records = %+v, len %d", recs, tr.Len())
	}
	if tot := tr.TotalDuration(); tot != recs[0].Duration()+recs[1].Duration() {
		t.Errorf("total duration %v, want the sum of %v and %v", tot, recs[0].Duration(), recs[1].Duration())
	}
}
