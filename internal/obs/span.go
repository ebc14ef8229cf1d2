package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"time"
)

// Request-scoped span tracing. Where the stage Tracer answers "what
// did one pipeline run spend per stage", spans answer the serving
// question: for this one request, where did the time go — router,
// snapshot load, LRU miss, decode, render? A Span is carried through
// context.Context; completed requests assemble into a Trace that
// lands in the Journal (ring buffer, /debug/traces). Do opens one for
// every unit of work it runs, so a stage that has a record also has a
// live span when a trace is active. The disabled path — a context with
// no active span — is allocation-free, so every layer threads
// StartSpan unconditionally, exactly like the nil *Tracer convention.

// activeSpanKey carries the in-flight *Span through a context.
type activeSpanKey struct{}

// SpanRecord is one completed span of a trace: its position in the
// span tree (Parent is the parent span ID, -1 for the root), when it
// started relative to the trace start, how long it ran, and its
// string attributes (cache=lru_hit, quarter=2014Q2, status=200, ...).
type SpanRecord struct {
	ID         int               `json:"id"`
	Parent     int               `json:"parent"`
	Name       string            `json:"name"`
	StartNS    int64             `json:"start_ns"`
	DurationNS int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Duration returns the span wall time as a time.Duration.
func (r SpanRecord) Duration() time.Duration { return time.Duration(r.DurationNS) }

// Trace assembles the spans of one request (or one startup mining
// run). It is identified by the request ID and safe for concurrent
// span completion — handlers may fan work out.
type Trace struct {
	id    string
	start time.Time

	mu     sync.Mutex
	nextID int
	spans  []SpanRecord
}

// NewTrace starts an empty trace identified by id (normally the
// request ID).
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace identifier.
func (t *Trace) ID() string { return t.id }

// Span is one in-flight operation inside a trace. A nil *Span no-ops
// on every method, so the disabled-tracing path costs nothing. A span
// is owned by the goroutine that started it; End hands the completed
// record to the trace under its lock.
type Span struct {
	tr     *Trace
	id     int
	parent int
	name   string
	start  time.Time
	attrs  map[string]string
}

func (t *Trace) newSpan(name string, parent int) *Span {
	t.mu.Lock()
	id := t.nextID
	t.nextID++
	t.mu.Unlock()
	return &Span{tr: t, id: id, parent: parent, name: name, start: time.Now()}
}

// StartRoot opens the root span of the trace and returns a context
// carrying it; child spans started from that context attach below it.
func (t *Trace) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	s := t.newSpan(name, -1)
	return context.WithValue(ctx, activeSpanKey{}, s), s
}

// StartSpan starts a child of the active span in ctx and returns a
// derived context carrying the child. When ctx has no active span
// (tracing disabled, or a background call path), it returns ctx
// unchanged and a nil span — zero allocations, benchmark-guarded.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(activeSpanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tr.newSpan(name, parent.id)
	return context.WithValue(ctx, activeSpanKey{}, s), s
}

// TraceID returns the ID of the trace this span belongs to — the
// handle callers use to link derived records (wide events) back to the
// journal. A nil span (tracing disabled) returns "".
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// SetAttr records a string attribute on the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// SetInt records an integer attribute on the span.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// End completes the span and appends its record to the trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	t := s.tr
	t.mu.Lock()
	t.spans = append(t.spans, SpanRecord{
		ID:         s.id,
		Parent:     s.parent,
		Name:       s.name,
		StartNS:    s.start.Sub(t.start).Nanoseconds(),
		DurationNS: int64(dur),
		Attrs:      s.attrs,
	})
	t.mu.Unlock()
}

// ActiveSpan returns the in-flight span carried by ctx, or nil.
func ActiveSpan(ctx context.Context) *Span {
	s, _ := ctx.Value(activeSpanKey{}).(*Span)
	return s
}

// TraceRecord is a completed, immutable view of a trace as stored in
// the journal: identity, the root span's name and wall time, and the
// full span set.
type TraceRecord struct {
	ID         string       `json:"id"`
	Name       string       `json:"name"`
	Start      time.Time    `json:"start"`
	DurationNS int64        `json:"duration_ns"`
	Slow       bool         `json:"slow,omitempty"`
	Spans      []SpanRecord `json:"spans"`
}

// Duration returns the trace wall time (the root span's duration).
func (r TraceRecord) Duration() time.Duration { return time.Duration(r.DurationNS) }

// Snapshot finalizes the trace into a journal-ready record. Call it
// after ending the root span; spans still in flight are simply absent
// from the record.
func (t *Trace) Snapshot() TraceRecord {
	t.mu.Lock()
	spans := make([]SpanRecord, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	rec := TraceRecord{ID: t.id, Start: t.start, Spans: spans}
	for _, s := range spans {
		if s.Parent == -1 {
			rec.Name = s.Name
			rec.DurationNS = s.DurationNS
		}
	}
	if rec.DurationNS == 0 {
		// No completed root (snapshot taken early): span extent.
		for _, s := range spans {
			if end := s.StartNS + s.DurationNS; end > rec.DurationNS {
				rec.DurationNS = end
			}
		}
	}
	return rec
}

// RequestIDHeader is the inbound/outbound request-ID header the HTTP
// middleware honors, generates, and echoes.
const RequestIDHeader = "X-Request-ID"

// NewRequestID returns a fresh 16-hex-character request identifier.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to
		// a time-derived ID rather than serving an empty one.
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(b[:])
}

// ValidRequestID reports whether an inbound X-Request-ID is safe to
// echo into headers and logs: 1..128 printable ASCII characters with
// no spaces or quotes.
func ValidRequestID(s string) bool {
	if len(s) == 0 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c <= ' ' || c > '~' || c == '"' {
			return false
		}
	}
	return true
}
