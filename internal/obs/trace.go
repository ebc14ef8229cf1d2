// Package obs is the observability substrate of the MARAS system:
// Do, the one instrumentation call a unit of work (a pipeline stage,
// a snapshot decode, a watch evaluation) runs under, which yields its
// span, its pprof labels and its stage record together;
// request-scoped span tracing with a ring-buffer trace journal
// (/debug/traces), a dependency-free metrics registry with a
// hand-written Prometheus text renderer and expvar bridge, HTTP server
// middleware (request logging with request IDs, latency histograms,
// status counters, panic recovery, root spans), liveness/readiness
// probes, a runtime health sampler with a watchdog, and pprof wiring.
// Everything is standard library only (log/slog, expvar,
// net/http/pprof, runtime/metrics), matching the repo's
// zero-dependency rule.
package obs

import (
	"context"
	"log/slog"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// The pprof label keys units of work run under: pipeline stages carry
// stage=<name>, the other hot paths op=<name> (op=store_load for a
// snapshot decode, op=watch_eval for a watchlist evaluation pass), and
// HTTP requests route=<pattern>.
const (
	LabelStage = "stage"
	LabelOp    = "op"
	LabelRoute = "route"
)

// StageSpanPrefix starts the span name of a pipeline stage
// (stage:clean, stage:mine, ...). The stage record Do appends drops
// it, so records carry the bare stage name.
const StageSpanPrefix = "stage:"

// heapAllocsMetric is the cumulative heap allocation counter sampled
// around each unit of work to attribute its allocation volume
// (StageRecord.AllocBytes, the alloc_bytes span attribute). The
// runtime adds a small-object span's allocations to it when a P's
// cache swaps the span out, so a unit can be billed for spans the unit
// before it filled: a stage's figure can move although its code did
// not change. (runtime.ReadMemStats flushes the caches and is exact,
// but stops the world.)
const heapAllocsMetric = "/gc/heap/allocs:bytes"

// StageRecord is one completed pipeline stage: what it was called,
// how long it ran, how much it allocated (as heapAllocsMetric
// attributes it), and its domain counters (reports cleaned, itemsets
// mined, rules kept, ...).
type StageRecord struct {
	Name       string           `json:"name"`
	Seq        int              `json:"seq"`
	DurationNS int64            `json:"duration_ns"`
	AllocBytes uint64           `json:"alloc_bytes"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// Duration returns the stage wall time as a time.Duration.
func (r StageRecord) Duration() time.Duration { return time.Duration(r.DurationNS) }

// Tracer collects a record of every unit of work Do runs with it. A
// nil *Tracer records nothing and costs nothing, so the pipeline
// threads it unconditionally. It is safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	stages []StageRecord
	logger *slog.Logger
}

// NewTracer returns a tracer. logger may be nil; when set, every
// completed stage is logged at Debug level.
func NewTracer(logger *slog.Logger) *Tracer {
	return &Tracer{logger: logger}
}

// Stage is the unit of work in flight inside Do. Its counters land in
// the stage record and, as attributes, on the span. Do hands fn a nil
// *Stage when nothing observes the work (no tracer, no active span);
// Count then no-ops without allocating.
type Stage struct {
	counters map[string]int64
	// sample reads the heap allocation counter at both ends of the
	// unit; metrics.Read lets its argument escape, so a buffer kept in
	// the already heap-allocated Stage saves an allocation per read.
	sample [1]metrics.Sample
}

// heapAllocs samples cumulative heap allocation bytes.
func (s *Stage) heapAllocs() uint64 {
	metrics.Read(s.sample[:])
	if v := s.sample[0].Value; v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

// Count adds n to a named counter (reports_in, rules_kept, ...).
func (s *Stage) Count(name string, n int64) {
	if s == nil {
		return
	}
	if s.counters == nil {
		s.counters = make(map[string]int64, 4)
	}
	s.counters[name] += n
}

// Do runs fn as one unit of work named name. In one call it opens a
// live child span of ctx's active span, runs fn under the pprof label
// pairs in labels (key, value, ...) so CPU samples taken while fn runs
// attribute to the work, and, on a non-nil tracer, appends a
// StageRecord named name less StageSpanPrefix, with wall time,
// allocation volume and the counters fn set. The counters and the
// allocation volume (alloc_bytes) also become span attributes. fn
// receives the context carrying the span and the labels.
//
// With a nil tracer and no active span Do allocates exactly what
// pprof.Do with the same labels does.
func Do(ctx context.Context, t *Tracer, name string, fn func(context.Context, *Stage), labels ...string) {
	ctx, span := StartSpan(ctx, name)
	var (
		st       *Stage
		start    time.Time
		startAlc uint64
	)
	if t != nil || span != nil {
		st = &Stage{sample: [1]metrics.Sample{{Name: heapAllocsMetric}}}
		startAlc = st.heapAllocs()
		start = time.Now()
	}
	pprof.Do(ctx, pprof.Labels(labels...), func(ctx context.Context) { fn(ctx, st) })
	if st == nil {
		return
	}
	dur := time.Since(start)
	var alloc uint64
	if endAlc := st.heapAllocs(); endAlc > startAlc {
		alloc = endAlc - startAlc
	}
	if span != nil {
		span.SetInt("alloc_bytes", int64(alloc))
		for k, v := range st.counters {
			span.SetInt(k, v)
		}
		span.End()
	}
	t.record(strings.TrimPrefix(name, StageSpanPrefix), dur, alloc, st.counters)
}

// record appends one completed stage and logs it at Debug level.
func (t *Tracer) record(name string, dur time.Duration, alloc uint64, counters map[string]int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stages = append(t.stages, StageRecord{
		Name:       name,
		Seq:        len(t.stages) + 1,
		DurationNS: int64(dur),
		AllocBytes: alloc,
		Counters:   counters,
	})
	t.mu.Unlock()
	if t.logger != nil {
		attrs := []any{
			slog.String("stage", name),
			slog.Duration("duration", dur),
			slog.Uint64("alloc_bytes", alloc),
		}
		for k, v := range counters {
			attrs = append(attrs, slog.Int64(k, v))
		}
		t.logger.Debug("pipeline stage", attrs...)
	}
}

// Len returns how many stages have completed. Nil tracers report 0.
func (t *Tracer) Len() int { return len(t.Records()) }

// Records returns a copy of the completed stage records in order.
// Nil tracers return nil.
func (t *Tracer) Records() []StageRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StageRecord, len(t.stages))
	copy(out, t.stages)
	return out
}

// TotalDuration sums the wall time of all recorded stages.
func (t *Tracer) TotalDuration() time.Duration {
	var tot time.Duration
	for _, r := range t.Records() {
		tot += r.Duration()
	}
	return tot
}
