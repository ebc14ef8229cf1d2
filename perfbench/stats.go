package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by nearest rank,
// leaving xs as it is. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call the benchmark made into a layer of the
// program: an HTTP request, a library call, or a pipeline stage read
// back from the stage tracer. Spans of one unit of work share Trace.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Trace   int     `json:"trace"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	OK      bool    `json:"ok"`
}

// spanLog keeps spans in memory for the traced run and writes them out
// once the run ends. A nil *spanLog records nothing, which is how the
// untraced runs use it.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	trace  int
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// newTrace returns a fresh trace identifier.
func (l *spanLog) newTrace() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.trace++
	return l.trace
}

// add records a completed span and returns its identifier.
func (l *spanLog) add(trace, parent int, name string, start time.Time, dur time.Duration, ok bool) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartMS: ms(start.Sub(l.origin)), DurMS: ms(dur), OK: ok,
	})
	return id
}

// time runs fn under a span and returns its duration.
func (l *spanLog) time(trace, parent int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	l.add(trace, parent, name, start, d, true)
	return d
}

// durations returns the durations in ms of every span called name.
func (l *spanLog) durations(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.DurMS)
		}
	}
	return out
}

// writeFile stores the spans as a JSON array.
func (l *spanLog) writeFile(path string) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
