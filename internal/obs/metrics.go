package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension (e.g. route="/signal/").
type Label struct{ Key, Value string }

// L is a convenience constructor: L("route", "/", "code", "2xx").
// Keys and values alternate; an odd trailing key is dropped.
func L(kv ...string) []Label {
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, Label{kv[i], kv[i+1]})
	}
	return out
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored to keep monotonicity).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (in-flight requests).
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set forces the gauge to n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is a gauge holding a float64 — burn rates, budget
// fractions, and ratios need sub-unit resolution the int64 Gauge
// cannot carry. It renders as TYPE gauge.
type FloatGauge struct{ bits atomic.Uint64 }

// Set forces the gauge to v.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current level.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution (Prometheus classic
// histogram semantics: cumulative buckets plus sum and count). Each
// bucket additionally remembers the last exemplar observed into it —
// a trace ID, the exact value, and when — so the OpenMetrics rendering
// can link a latency bucket straight to /debug/diag/{trace-id}.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64
	inf    atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	count  atomic.Int64
	// ex holds one exemplar pointer per finite bucket plus the +Inf
	// slot at the end. Written with a plain pointer store (last writer
	// wins; exemplars are samples, not ledgers).
	ex []atomic.Pointer[Exemplar]
}

// Exemplar is the last observation recorded into one histogram bucket
// with an identity attached: the trace (request) ID that produced the
// value, for OpenMetrics `# {trace_id="..."}` rendering.
type Exemplar struct {
	TraceID string
	Value   float64
	Time    time.Time
}

// DefaultLatencyBuckets are the fixed request-latency bucket bounds
// in seconds (0.5ms .. 10s).
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)),
		ex:     make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.observe(v, "") }

// ObserveExemplar records one sample and pins it as the bucket's
// exemplar under traceID (an empty ID records the sample without an
// exemplar, exactly like Observe).
func (h *Histogram) ObserveExemplar(v float64, traceID string) { h.observe(v, traceID) }

func (h *Histogram) observe(v float64, traceID string) {
	// Cumulative at render time; store per-bucket here.
	idx := sort.SearchFloat64s(h.bounds, v)
	if idx < len(h.counts) {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	if traceID != "" {
		h.ex[idx].Store(&Exemplar{TraceID: traceID, Value: v, Time: time.Now()})
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// BucketExemplar returns bucket i's exemplar (i == len(bounds) is the
// +Inf bucket), or nil when none has been observed.
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if i < 0 || i >= len(h.ex) {
		return nil
	}
	return h.ex[i].Load()
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts aligned with bounds,
// then the +Inf count.
func (h *Histogram) snapshot() ([]int64, int64) {
	cum := make([]int64, len(h.bounds))
	var run int64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, run + h.inf.Load()
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instance of a metric family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	fg     *FloatGauge
	h      *Histogram
}

// family is a named metric with HELP/TYPE metadata and its labeled
// series.
type family struct {
	name, help, typ string
	mu              sync.Mutex
	series          map[string]*series // key = canonical label string
	order           []string
}

// Registry holds metric families and renders them as Prometheus
// exposition text or an expvar-friendly JSON snapshot.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]*series{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

// labelKey builds the canonical series key. Separator characters
// inside values are escaped so hostile values (a value containing
// `,` or `=`) cannot collide two distinct label sets onto one series.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	esc := func(s string) {
		for i := 0; i < len(s); i++ {
			switch c := s[i]; c {
			case '\\', '=', ',':
				b.WriteByte('\\')
				b.WriteByte(c)
			default:
				b.WriteByte(c)
			}
		}
	}
	for _, l := range labels {
		esc(l.Key)
		b.WriteByte('=')
		esc(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// get returns the series for labels, creating it on first use. mk runs
// under the family lock and gives the series its metric when it has
// none yet, so concurrent first uses share one metric and a reader that
// lists the series under the lock never finds one without it.
func (f *family) get(labels []Label, mk func(*series)) *series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		cp := make([]Label, len(labels))
		copy(cp, labels)
		s = &series{labels: cp}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	mk(s)
	return s
}

// Counter returns (creating on first use) the counter series of the
// named family with the given labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.family(name, help, typeCounter).get(labels, func(s *series) {
		if s.c == nil {
			s.c = &Counter{}
		}
	})
	return s.c
}

// Gauge returns (creating on first use) the gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.family(name, help, typeGauge).get(labels, func(s *series) {
		if s.g == nil {
			s.g = &Gauge{}
		}
	})
	return s.g
}

// FloatGauge returns (creating on first use) a float-valued gauge
// series. A family must stay homogeneous: mixing Gauge and FloatGauge
// series under one name renders both, so pick one per family.
func (r *Registry) FloatGauge(name, help string, labels ...Label) *FloatGauge {
	s := r.family(name, help, typeGauge).get(labels, func(s *series) {
		if s.fg == nil {
			s.fg = &FloatGauge{}
		}
	})
	return s.fg
}

// Histogram returns (creating on first use) the histogram series
// with the given fixed bucket upper bounds.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefaultLatencyBuckets
	}
	s := r.family(name, help, typeHistogram).get(labels, func(s *series) {
		if s.h == nil {
			s.h = newHistogram(buckets)
		}
	})
	return s.h
}

// escapeLabelValue escapes a Prometheus label value per the
// exposition format: backslash, double-quote, and newline.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP comment text per the exposition format:
// only backslash and newline (quotes stay literal in comments).
func escapeHelp(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// renderLabels formats {k="v",...}; extra appends additional pairs
// (used for the le bucket bound).
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label{}, labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (HELP/TYPE comments, escaped labels, cumulative
// histogram buckets with sum and count).
func (r *Registry) WritePrometheus(w io.Writer) { r.writeExposition(w, false) }

// WriteOpenMetrics renders the same families in OpenMetrics text
// format: identical lines, plus `# {trace_id="..."} value timestamp`
// exemplar suffixes on histogram bucket lines that have observed one.
// The caller owns the terminal `# EOF` line (runtime series are
// usually appended first).
func (r *Registry) WriteOpenMetrics(w io.Writer) { r.writeExposition(w, true) }

func (r *Registry) writeExposition(w io.Writer, openMetrics bool) {
	r.mu.Lock()
	names := append([]string{}, r.order...)
	r.mu.Unlock()
	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		r.mu.Unlock()
		if f == nil {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		f.mu.Lock()
		keys := append([]string{}, f.order...)
		sers := make([]*series, len(keys))
		for i, k := range keys {
			sers[i] = f.series[k]
		}
		f.mu.Unlock()
		for _, s := range sers {
			switch f.typ {
			case typeCounter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels), s.c.Value())
			case typeGauge:
				if s.fg != nil {
					fmt.Fprintf(w, "%s%s %s\n", f.name, renderLabels(s.labels), formatFloat(s.fg.Value()))
				} else {
					fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels), s.g.Value())
				}
			case typeHistogram:
				cum, total := s.h.snapshot()
				for i, bound := range s.h.bounds {
					fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name,
						renderLabels(s.labels, Label{"le", formatFloat(bound)}), cum[i],
						exemplarSuffix(s.h, i, openMetrics))
				}
				fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name,
					renderLabels(s.labels, Label{"le", "+Inf"}), total,
					exemplarSuffix(s.h, len(s.h.bounds), openMetrics))
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, renderLabels(s.labels), formatFloat(s.h.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(s.labels), total)
			}
		}
	}
}

// exemplarSuffix renders bucket i's exemplar as an OpenMetrics
// ` # {trace_id="..."} value timestamp` suffix, or "" when exemplars
// are off (classic Prometheus text) or the bucket has none.
func exemplarSuffix(h *Histogram, i int, openMetrics bool) string {
	if !openMetrics {
		return ""
	}
	e := h.BucketExemplar(i)
	if e == nil {
		return ""
	}
	ts := float64(e.Time.UnixNano()) / 1e9
	return fmt.Sprintf(" # {trace_id=\"%s\"} %s %s",
		escapeLabelValue(e.TraceID), formatFloat(e.Value),
		strconv.FormatFloat(ts, 'f', 3, 64))
}

// runtimeSamples are the runtime/metrics series exported alongside
// the registry on every scrape.
var runtimeSamples = []struct {
	metric, name, help string
}{
	{"/memory/classes/heap/objects:bytes", "go_heap_objects_bytes", "Bytes of allocated heap objects."},
	{"/gc/heap/allocs:bytes", "go_heap_allocs_bytes_total", "Cumulative bytes allocated on the heap."},
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total", "Completed GC cycles."},
	{"/sched/goroutines:goroutines", "go_goroutines", "Current number of goroutines."},
}

// WriteRuntimePrometheus renders a small fixed set of Go runtime
// health series (heap bytes, GC cycles, goroutines).
func WriteRuntimePrometheus(w io.Writer) {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i := range runtimeSamples {
		samples[i].Name = runtimeSamples[i].metric
	}
	metrics.Read(samples)
	for i, rs := range runtimeSamples {
		v := samples[i].Value
		if v.Kind() != metrics.KindUint64 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			rs.name, rs.help, rs.name, rs.name, v.Uint64())
	}
	// NumGoroutine is also available without runtime/metrics; keep the
	// sample above authoritative and add CPU count for capacity math.
	fmt.Fprintf(w, "# HELP go_cpus Number of usable CPUs.\n# TYPE go_cpus gauge\ngo_cpus %d\n",
		runtime.NumCPU())
}

// Snapshot returns a JSON-ready view of the registry: family name →
// series label string → value (histograms expose count/sum/buckets).
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	r.mu.Lock()
	names := append([]string{}, r.order...)
	r.mu.Unlock()
	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		r.mu.Unlock()
		if f == nil {
			continue
		}
		fam := map[string]any{}
		f.mu.Lock()
		for _, key := range f.order {
			s := f.series[key]
			lbl := strings.TrimSuffix(renderLabels(s.labels), "}")
			lbl = strings.TrimPrefix(lbl, "{")
			switch f.typ {
			case typeCounter:
				fam[lbl] = s.c.Value()
			case typeGauge:
				if s.fg != nil {
					fam[lbl] = s.fg.Value()
				} else {
					fam[lbl] = s.g.Value()
				}
			case typeHistogram:
				cum, total := s.h.snapshot()
				buckets := map[string]int64{}
				for i, bound := range s.h.bounds {
					buckets[formatFloat(bound)] = cum[i]
				}
				buckets["+Inf"] = total
				fam[lbl] = map[string]any{
					"count":   total,
					"sum":     s.h.Sum(),
					"buckets": buckets,
				}
			}
		}
		f.mu.Unlock()
		out[name] = fam
	}
	return out
}

// SeriesKey renders the canonical identity of a series —
// name{k="v",...}, exactly as WritePrometheus prints it — used by the
// history layer to key per-series rings and by /api/history lookups.
func SeriesKey(name string, labels []Label) string {
	return name + renderLabels(labels)
}

// SeriesSnapshot is one series' instantaneous state in typed form:
// the scrape surface behind internal/obs/history (WritePrometheus is
// the same data rendered as exposition text).
type SeriesSnapshot struct {
	Name   string
	Type   string // "counter", "gauge", "histogram"
	Labels []Label
	// Value carries the counter count or gauge level.
	Value float64
	// Histogram state: finite bucket upper bounds, cumulative counts
	// aligned with them, the total count (including +Inf), and the sum.
	Bounds     []float64
	Cumulative []int64
	Count      int64
	Sum        float64
}

// Gather snapshots every series in registration order. Bounds aliases
// the histogram's immutable bounds slice; Cumulative is freshly
// allocated per call.
func (r *Registry) Gather() []SeriesSnapshot {
	r.mu.Lock()
	names := append([]string{}, r.order...)
	r.mu.Unlock()
	var out []SeriesSnapshot
	for _, name := range names {
		r.mu.Lock()
		f := r.families[name]
		r.mu.Unlock()
		if f == nil {
			continue
		}
		f.mu.Lock()
		sers := make([]*series, 0, len(f.order))
		for _, k := range f.order {
			sers = append(sers, f.series[k])
		}
		f.mu.Unlock()
		for _, s := range sers {
			sn := SeriesSnapshot{Name: f.name, Type: f.typ, Labels: s.labels}
			switch f.typ {
			case typeCounter:
				sn.Value = float64(s.c.Value())
			case typeGauge:
				if s.fg != nil {
					sn.Value = s.fg.Value()
				} else {
					sn.Value = float64(s.g.Value())
				}
			case typeHistogram:
				cum, total := s.h.snapshot()
				sn.Bounds = s.h.bounds
				sn.Cumulative = cum
				sn.Count = total
				sn.Sum = s.h.Sum()
			}
			out = append(out, sn)
		}
	}
	return out
}

// PublishExpvar publishes the registry snapshot as a named expvar
// variable so it appears in /debug/vars. Publishing the same name
// twice panics in expvar, so this is guarded for reuse in tests.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
