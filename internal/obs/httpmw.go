package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	rpprof "runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// HTTPMetrics instruments a mux: per-route request/latency/status
// series, an in-flight gauge, panic recovery, structured request
// logs with request IDs, and (when a journal is attached) a root
// span per request feeding the trace journal.
type HTTPMetrics struct {
	reg      *Registry
	logger   *slog.Logger
	inflight *Gauge
	panics   *Counter

	journal    *Journal
	traces     *Counter
	slowTraces *Counter

	onComplete func(RequestSample)
}

// RequestSample is the flat per-request record handed to the
// OnComplete hook when the wrapped handler finishes: identity, route,
// outcome, and (when tracing is enabled) the completed trace. It is
// the raw material of a wide event — defined here rather than in
// obs/wide so the middleware stays free of that dependency.
type RequestSample struct {
	Time      time.Time // completion time
	RequestID string
	Route     string
	Status    int
	Duration  time.Duration
	Bytes     int64
	Gzip      bool         // response negotiated Content-Encoding: gzip
	Stale     bool         // response carried X-Maras-Stale
	Origin    string       // response X-Maras-Origin (local|stale|peer)
	Trace     *TraceRecord // completed trace; nil when tracing is disabled
}

// OnComplete registers fn to run after every wrapped request, outside
// any lock, on the serving goroutine. One subscriber; set it during
// wiring, before traffic. A nil hook (the default) adds nothing to the
// request path.
func (m *HTTPMetrics) OnComplete(fn func(RequestSample)) { m.onComplete = fn }

// NewHTTPMetrics builds the middleware over a registry. logger may
// be nil to disable request logging.
func NewHTTPMetrics(reg *Registry, logger *slog.Logger) *HTTPMetrics {
	return &HTTPMetrics{
		reg:      reg,
		logger:   logger,
		inflight: reg.Gauge("http_inflight_requests", "Requests currently being served."),
		panics:   reg.Counter("http_panics_total", "Handler panics recovered."),
	}
}

// EnableTracing attaches a trace journal: every wrapped request opens
// a root span carried through the request context, and the completed
// trace lands in j. Without it the span path stays disabled (and
// allocation-free) — request IDs are handled either way.
func (m *HTTPMetrics) EnableTracing(j *Journal) {
	m.journal = j
	m.traces = m.reg.Counter("http_traces_total", "Request traces recorded in the journal.")
	m.slowTraces = m.reg.Counter("http_slow_traces_total",
		"Request traces at or above the slow-trace threshold.")
	j.CountEvictions(m.reg.Counter("maras_trace_journal_evicted_total",
		"Completed traces overwritten by the fixed-size journal ring."))
}

// statusRecorder captures the status code and bytes written by the
// wrapped handler.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += int64(n)
	return n, err
}

// Flush passes http.Flusher through the wrapper so streaming and
// chunked handlers (pprof profiles, long renders) keep flushing under
// the middleware. A non-flushing underlying writer makes it a no-op.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		if sr.status == 0 {
			sr.status = http.StatusOK
		}
		f.Flush()
	}
}

// codeClass buckets a status code into "1xx".."5xx".
func codeClass(code int) string {
	switch {
	case code >= 500:
		return "5xx"
	case code >= 400:
		return "4xx"
	case code >= 300:
		return "3xx"
	case code >= 200:
		return "2xx"
	default:
		return "1xx"
	}
}

var codeClasses = []string{"1xx", "2xx", "3xx", "4xx", "5xx"}

// Wrap instruments a handler under a route label (the mux pattern).
// The counters and histogram series are created eagerly so /metrics
// shows every route from the first scrape.
func (m *HTTPMetrics) Wrap(route string, next http.Handler) http.Handler {
	byClass := make(map[string]*Counter, len(codeClasses))
	for _, cc := range codeClasses {
		byClass[cc] = m.reg.Counter("http_requests_total",
			"HTTP requests served, by route and status class.",
			Label{"route", route}, Label{"code", cc})
	}
	latency := m.reg.Histogram("http_request_duration_seconds",
		"Request latency in seconds, by route.", DefaultLatencyBuckets,
		Label{"route", route})

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Add(1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}

		// Request identity: honor a well-formed inbound X-Request-ID,
		// generate otherwise, and echo it on the response so clients
		// and logs correlate.
		reqID := r.Header.Get(RequestIDHeader)
		if !ValidRequestID(reqID) {
			reqID = NewRequestID()
		}
		w.Header().Set(RequestIDHeader, reqID)

		// Root span: only when a journal is attached; the disabled
		// path allocates nothing on the span side.
		var tr *Trace
		var root *Span
		if m.journal != nil {
			tr = NewTrace(reqID)
			var ctx context.Context
			ctx, root = tr.StartRoot(r.Context(), r.Method+" "+route)
			root.SetAttr("path", r.URL.Path)
			r = r.WithContext(ctx)
		}

		defer func() {
			if p := recover(); p != nil {
				m.panics.Inc()
				if rec.status == 0 {
					http.Error(rec.ResponseWriter, "internal server error", http.StatusInternalServerError)
					rec.status = http.StatusInternalServerError
				}
				if m.logger != nil {
					m.logger.Error("handler panic",
						slog.String("route", route),
						slog.String("path", r.URL.Path),
						slog.String("request_id", reqID),
						slog.Any("panic", p),
						slog.String("stack", string(debug.Stack())),
					)
				}
			}
			dur := time.Since(start)
			m.inflight.Add(-1)
			status := rec.status
			if status == 0 {
				status = http.StatusOK
			}
			byClass[codeClass(status)].Inc()
			// The request ID doubles as the trace ID, so the exemplar on
			// the latency bucket links straight to /debug/diag/{id}.
			latency.ObserveExemplar(dur.Seconds(), reqID)
			var snap TraceRecord
			if root != nil {
				root.SetInt("status", int64(status))
				root.SetInt("bytes", rec.bytes)
				root.End()
				snap = tr.Snapshot()
				slow := m.journal.Add(snap)
				m.traces.Inc()
				if slow {
					m.slowTraces.Inc()
					if m.logger != nil {
						m.logger.Warn("slow request trace",
							slog.String("request_id", reqID),
							slog.String("route", route),
							slog.Duration("duration", dur),
						)
					}
				}
			}
			if m.onComplete != nil {
				s := RequestSample{
					Time:      start.Add(dur),
					RequestID: reqID,
					Route:     route,
					Status:    status,
					Duration:  dur,
					Bytes:     rec.bytes,
					Gzip:      rec.Header().Get("Content-Encoding") == "gzip",
					Stale:     rec.Header().Get("X-Maras-Stale") != "",
					Origin:    rec.Header().Get("X-Maras-Origin"),
				}
				if root != nil {
					s.Trace = &snap
				}
				m.onComplete(s)
			}
			if m.logger != nil {
				m.logger.Info("request",
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.String("route", route),
					slog.String("request_id", reqID),
					slog.Int("status", status),
					slog.Duration("duration", dur),
					slog.Int64("bytes", rec.bytes),
					slog.String("remote", r.RemoteAddr),
				)
			}
		}()
		// Serve under a route= pprof label so CPU profile samples —
		// whether from an attached operator or the continuous-capture
		// scheduler — attribute request cycles per route. The label set
		// is tiny and pprof.Do is a few map writes; this is always on.
		rpprof.Do(r.Context(), rpprof.Labels(LabelRoute, route), func(ctx context.Context) {
			next.ServeHTTP(rec, r.WithContext(ctx))
		})
	})
}

// HandleFunc registers an instrumented handler on the mux under
// pattern, using the pattern itself as the route label.
func (m *HTTPMetrics) HandleFunc(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.Handle(pattern, m.Wrap(pattern, h))
}

// Handle is HandleFunc for an http.Handler — the registration point
// when the application handler is itself wrapped in middleware (e.g. a
// load-shedding bulkhead) that should run inside the instrumentation,
// so its responses are counted, logged, and spanned like any other.
func (m *HTTPMetrics) Handle(mux *http.ServeMux, pattern string, h http.Handler) {
	mux.Handle(pattern, m.Wrap(pattern, h))
}

// openMetricsContentType is the negotiated OpenMetrics media type;
// scrapers opt in with Accept: application/openmetrics-text (as
// Prometheus does when exemplar ingestion is on).
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// MetricsHandler serves the registry. The default rendering is
// Prometheus exposition text (with runtime series appended);
// ?format=json returns the full expvar dump, and clients accepting
// application/openmetrics-text (or asking ?format=openmetrics) get
// the OpenMetrics rendering with histogram exemplars and the terminal
// `# EOF` — so one endpoint covers all three scrape styles.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Query().Get("format") == "json":
			ExpvarHandler().ServeHTTP(w, r)
		case r.URL.Query().Get("format") == "openmetrics" ||
			strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text"):
			w.Header().Set("Content-Type", openMetricsContentType)
			reg.WriteOpenMetrics(w)
			WriteRuntimePrometheus(w)
			io.WriteString(w, "# EOF\n")
		default:
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
			WriteRuntimePrometheus(w)
		}
	})
}

// ExpvarHandler returns the standard /debug/vars JSON handler
// (expvar.Handler is only registered on the default mux by import;
// this exposes it for custom muxes).
func ExpvarHandler() http.Handler { return expvar.Handler() }

// HealthzHandler reports liveness plus caller-supplied detail
// (quarter served, signal count, uptime).
func HealthzHandler(detail func() map[string]any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := map[string]any{"status": "ok"}
		if detail != nil {
			for k, v := range detail() {
				body[k] = v
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(body); err != nil {
			http.Error(w, fmt.Sprintf("healthz encode: %v", err), http.StatusInternalServerError)
		}
	})
}

// Readiness is the latch behind /readyz, separating liveness ("the
// process is up", /healthz) from readiness ("the store registry or
// initial mine is done; send traffic"). It starts not-ready; the
// serving process flips it once its backing data is loadable. A nil
// *Readiness reports not ready.
type Readiness struct {
	ready  atomic.Bool
	mu     sync.Mutex
	causes map[string]bool // named degradation causes currently set
}

// SetReady marks the process ready to serve.
func (rd *Readiness) SetReady() { rd.ready.Store(true) }

// Ready reports whether SetReady has been called.
func (rd *Readiness) Ready() bool { return rd != nil && rd.ready.Load() }

// SetDegraded flags (or clears) one named cause of degraded
// operation: the process is still serving — /readyz stays 200 so the
// load balancer keeps routing — but some answers come from stale data
// or a service objective is burning. Causes are independent: stale
// store serving ("store") and an SLO fast burn ("slo:availability")
// can overlap without stomping each other's flag, and Degraded stays
// true until every cause clears. Orchestrators alert on the status
// string; they do not drain.
func (rd *Readiness) SetDegraded(cause string, on bool) {
	if rd == nil {
		return
	}
	rd.mu.Lock()
	defer rd.mu.Unlock()
	if on {
		if rd.causes == nil {
			rd.causes = map[string]bool{}
		}
		rd.causes[cause] = true
		return
	}
	delete(rd.causes, cause)
}

// Degraded reports whether any degradation cause is set.
func (rd *Readiness) Degraded() bool {
	if rd == nil {
		return false
	}
	rd.mu.Lock()
	defer rd.mu.Unlock()
	return len(rd.causes) > 0
}

// DegradedCauses returns the sorted names of the active causes.
func (rd *Readiness) DegradedCauses() []string {
	if rd == nil {
		return nil
	}
	rd.mu.Lock()
	out := make([]string, 0, len(rd.causes))
	for c := range rd.causes {
		out = append(out, c)
	}
	rd.mu.Unlock()
	sort.Strings(out)
	return out
}

// ReadyzHandler answers 503 until rd is ready, then 200 with the
// caller-supplied detail — the load-balancer gate, where /healthz is
// the restart gate. A ready-but-degraded process still answers 200,
// with status "degraded" instead of "ready".
func ReadyzHandler(rd *Readiness, detail func() map[string]any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if !rd.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{"status": "unavailable"})
			return
		}
		status := "ready"
		body := map[string]any{}
		if causes := rd.DegradedCauses(); len(causes) > 0 {
			status = "degraded"
			body["degraded_causes"] = causes
		}
		body["status"] = status
		if detail != nil {
			for k, v := range detail() {
				body[k] = v
			}
		}
		if err := json.NewEncoder(w).Encode(body); err != nil {
			http.Error(w, fmt.Sprintf("readyz encode: %v", err), http.StatusInternalServerError)
		}
	})
}

// RegisterPprof wires the net/http/pprof handlers onto a custom mux
// under the standard /debug/pprof/ prefix.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
