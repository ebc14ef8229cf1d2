// Package wide implements wide-event telemetry: one flat, canonical
// record per unit of work — a served request, a store load, a watch
// evaluation, a mining run — carrying every dimension the other
// telemetry signals key on (request ID, route, status, latency,
// quarter, cache outcome, stale/shed/breaker flags, bytes, user, span
// summary, trace ID, profile artifact). Events land in a bounded
// in-memory columnar ring (struct-of-arrays) with a small filter/
// group-by/quantile query engine behind /debug/events, and the
// cross-signal join behind /debug/diag/{request-id}.
//
// The ring follows the repo's nil-receiver convention: a nil *Ring
// drops every emission with zero allocations, so every emission point
// calls Emit unconditionally.
package wide

import (
	"sync"
	"sync/atomic"
	"time"

	"maras/internal/obs"
)

// Event kinds: which unit of work the event describes.
const (
	KindRequest     = "request"
	KindStoreLoad   = "store_load"
	KindWatchEval   = "watch_eval"
	KindMine        = "mine"
	KindReplicaSync = "replica_sync"
)

// Event is one wide record. Only Time, Kind, and Duration are always
// meaningful; the remaining dimensions are populated where the kind
// has them (a store_load has a quarter but no route; a request has
// both when it touched the store).
type Event struct {
	Time       time.Time     `json:"time"`
	Kind       string        `json:"kind"`
	ID         string        `json:"id,omitempty"` // request ID; "" for background work
	Route      string        `json:"route,omitempty"`
	Status     int           `json:"status,omitempty"`
	Duration   time.Duration `json:"duration_ns"`
	Quarter    string        `json:"quarter,omitempty"`
	Cache      string        `json:"cache,omitempty"`  // lru_hit | lru_miss | promoted
	Origin     string        `json:"origin,omitempty"` // serving origin: local | stale | peer
	Stale      bool          `json:"stale,omitempty"`
	Shed       string        `json:"shed,omitempty"` // bulkhead shed reason
	Breaker    bool          `json:"breaker,omitempty"`
	Gzip       bool          `json:"gzip,omitempty"`
	Bytes      int64         `json:"bytes,omitempty"`
	User       string        `json:"user,omitempty"`
	Spans      int           `json:"spans,omitempty"`
	Slowest    string        `json:"slowest,omitempty"` // slowest child span name
	SlowestDur time.Duration `json:"slowest_ns,omitempty"`
	Trace      string        `json:"trace,omitempty"`   // journal trace ID
	Profile    string        `json:"profile,omitempty"` // profile artifact captured in-window
}

// DefaultCapacity is the ring size when NewRing gets zero.
const DefaultCapacity = 100_000

// Ring is the bounded columnar event store. Columns are parallel
// slices pre-allocated to capacity (struct-of-arrays): an emission is
// a cursor bump plus per-column stores under one short mutex hold —
// no per-event allocation — and a query scans cache-friendly columns
// instead of chasing per-event pointers. A nil *Ring no-ops.
type Ring struct {
	capacity int
	sample   int // keep every sample'th emission; 1 keeps all

	seq        atomic.Uint64 // emission counter for sampling, lock-free
	emitted    *obs.Counter  // stored events; nil without metrics
	sampledOut *obs.Counter
	linked     *obs.Counter // profile back-links applied

	mu   sync.Mutex
	n    int // rows filled, ≤ capacity
	next int // write cursor

	timeNS  []int64
	durNS   []int64
	slowNS  []int64
	bytes   []int64
	status  []int32
	spans   []int32
	stale   []bool
	gzip    []bool
	breaker []bool
	kind    []string
	id      []string
	route   []string
	quarter []string
	cache   []string
	origin  []string
	shed    []string
	user    []string
	slowest []string
	trace   []string
	profile []string
}

// NewRing builds a ring holding up to capacity events (<= 0 means
// DefaultCapacity), keeping every sample'th emission (<= 1 keeps all).
// When reg is non-nil the ring self-registers emission counters.
func NewRing(capacity, sample int, reg *obs.Registry) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if sample < 1 {
		sample = 1
	}
	r := &Ring{
		capacity: capacity,
		sample:   sample,
		timeNS:   make([]int64, capacity),
		durNS:    make([]int64, capacity),
		slowNS:   make([]int64, capacity),
		bytes:    make([]int64, capacity),
		status:   make([]int32, capacity),
		spans:    make([]int32, capacity),
		stale:    make([]bool, capacity),
		gzip:     make([]bool, capacity),
		breaker:  make([]bool, capacity),
		kind:     make([]string, capacity),
		id:       make([]string, capacity),
		route:    make([]string, capacity),
		quarter:  make([]string, capacity),
		cache:    make([]string, capacity),
		origin:   make([]string, capacity),
		shed:     make([]string, capacity),
		user:     make([]string, capacity),
		slowest:  make([]string, capacity),
		trace:    make([]string, capacity),
		profile:  make([]string, capacity),
	}
	if reg != nil {
		r.emitted = reg.Counter("maras_wide_events_total", "Wide events stored in the ring.")
		r.sampledOut = reg.Counter("maras_wide_events_sampled_out_total", "Wide events dropped by the sampling rate.")
		r.linked = reg.Counter("maras_wide_profile_links_total", "Wide events back-linked to a profile artifact.")
	}
	return r
}

// Capacity returns the ring's configured capacity (0 for a nil ring).
func (r *Ring) Capacity() int {
	if r == nil {
		return 0
	}
	return r.capacity
}

// Emit stores one wide event. A nil ring and the sampled-out path are
// both allocation-free, so hot paths emit unconditionally. A zero
// Time is stamped with now.
func (r *Ring) Emit(e Event) {
	if r == nil {
		return
	}
	if r.seq.Add(1)%uint64(r.sample) != 0 {
		if r.sampledOut != nil {
			r.sampledOut.Inc()
		}
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r.mu.Lock()
	i := r.next
	r.next = (r.next + 1) % r.capacity
	if r.n < r.capacity {
		r.n++
	}
	r.timeNS[i] = e.Time.UnixNano()
	r.durNS[i] = int64(e.Duration)
	r.slowNS[i] = int64(e.SlowestDur)
	r.bytes[i] = e.Bytes
	r.status[i] = int32(e.Status)
	r.spans[i] = int32(e.Spans)
	r.stale[i] = e.Stale
	r.gzip[i] = e.Gzip
	r.breaker[i] = e.Breaker
	r.kind[i] = e.Kind
	r.id[i] = e.ID
	r.route[i] = e.Route
	r.quarter[i] = e.Quarter
	r.cache[i] = e.Cache
	r.origin[i] = e.Origin
	r.shed[i] = e.Shed
	r.user[i] = e.User
	r.slowest[i] = e.Slowest
	r.trace[i] = e.Trace
	r.profile[i] = e.Profile
	r.mu.Unlock()
	if r.emitted != nil {
		r.emitted.Inc()
	}
}

// EmitRequest converts a completed HTTP request sample into a wide
// event and stores it — the function wired into HTTPMetrics.OnComplete.
func (r *Ring) EmitRequest(s obs.RequestSample) {
	if r == nil {
		return
	}
	r.Emit(RequestEvent(s))
}

// RequestEvent flattens a request sample into one wide event, deriving
// the cross-cutting dimensions (quarter, cache outcome, staleness,
// breaker state, shed reason, user) from the request's span attributes
// when a trace is attached.
func RequestEvent(s obs.RequestSample) Event {
	e := Event{
		Time:     s.Time,
		Kind:     KindRequest,
		ID:       s.RequestID,
		Route:    s.Route,
		Status:   s.Status,
		Duration: s.Duration,
		Bytes:    s.Bytes,
		Gzip:     s.Gzip,
		Stale:    s.Stale,
		Origin:   s.Origin,
	}
	tr := s.Trace
	if tr == nil {
		return e
	}
	e.Trace = tr.ID
	e.Spans = len(tr.Spans)
	var slowest obs.SpanRecord
	for _, sp := range tr.Spans {
		if sp.Parent >= 0 && sp.DurationNS > slowest.DurationNS {
			slowest = sp
		}
		for k, v := range sp.Attrs {
			switch k {
			case "quarter":
				if e.Quarter == "" {
					e.Quarter = v
				}
			case "cache":
				if e.Cache == "" {
					e.Cache = v
				}
			case "origin":
				if e.Origin == "" {
					e.Origin = v
				}
			case "stale":
				if v == "true" {
					e.Stale = true
				}
			case "breaker":
				if v == "open" {
					e.Breaker = true
				}
			case "shed":
				if sp.Parent == -1 && e.Shed == "" {
					e.Shed = v
				}
			case "user":
				if e.User == "" {
					e.User = v
				}
			}
		}
	}
	if slowest.DurationNS > 0 {
		e.Slowest = slowest.Name
		e.SlowestDur = time.Duration(slowest.DurationNS)
	}
	return e
}

// LinkProfile back-fills the Profile column on events whose time falls
// within ±window of takenAt and that have no profile link yet — called
// from the profile store's OnAdd hook so an incident's wide events
// point at the artifact captured while they were in flight. Returns
// how many events were linked.
func (r *Ring) LinkProfile(id string, takenAt time.Time, window time.Duration) int {
	if r == nil || id == "" {
		return 0
	}
	from := takenAt.Add(-window).UnixNano()
	to := takenAt.Add(window).UnixNano()
	linked := 0
	r.mu.Lock()
	for k := 0; k < r.n; k++ {
		i := r.rowAt(k)
		if r.timeNS[i] < from || r.timeNS[i] > to || r.profile[i] != "" {
			continue
		}
		r.profile[i] = id
		linked++
	}
	r.mu.Unlock()
	if r.linked != nil {
		r.linked.Add(int64(linked))
	}
	return linked
}

// rowAt maps a newest-first position k (0 = most recent) to a column
// index. Callers hold r.mu. The formula is valid whether or not the
// ring has wrapped: before wrapping next == n, so next-1-k walks the
// filled prefix backwards.
func (r *Ring) rowAt(k int) int {
	return ((r.next-1-k)%r.capacity + r.capacity) % r.capacity
}

// eventAt materializes the event at newest-first position k. Callers
// hold r.mu.
func (r *Ring) eventAt(k int) Event {
	i := r.rowAt(k)
	return Event{
		Time:       time.Unix(0, r.timeNS[i]),
		Kind:       r.kind[i],
		ID:         r.id[i],
		Route:      r.route[i],
		Status:     int(r.status[i]),
		Duration:   time.Duration(r.durNS[i]),
		Quarter:    r.quarter[i],
		Cache:      r.cache[i],
		Origin:     r.origin[i],
		Stale:      r.stale[i],
		Shed:       r.shed[i],
		Breaker:    r.breaker[i],
		Gzip:       r.gzip[i],
		Bytes:      r.bytes[i],
		User:       r.user[i],
		Spans:      int(r.spans[i]),
		Slowest:    r.slowest[i],
		SlowestDur: time.Duration(r.slowNS[i]),
		Trace:      r.trace[i],
		Profile:    r.profile[i],
	}
}

// Find returns the most recent event whose request ID or trace ID
// matches id. A nil ring finds nothing.
func (r *Ring) Find(id string) (Event, bool) {
	if r == nil || id == "" {
		return Event{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k := 0; k < r.n; k++ {
		i := r.rowAt(k)
		if r.id[i] == id || r.trace[i] == id {
			return r.eventAt(k), true
		}
	}
	return Event{}, false
}

// Stats summarizes ring occupancy and sampling.
type Stats struct {
	Capacity int    `json:"capacity"`
	Len      int    `json:"len"`
	Sample   int    `json:"sample"`
	Emitted  uint64 `json:"emitted"`
}

// RingStats returns occupancy totals (zero value for a nil ring).
func (r *Ring) RingStats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	n := r.n
	r.mu.Unlock()
	return Stats{Capacity: r.capacity, Len: n, Sample: r.sample, Emitted: r.seq.Load()}
}
