package main

// Server-level SLO tests: the readiness probe flipping to degraded on
// a fast-burn availability breach and recovering after the cooldown,
// the /api/slo and /api/history surfaces, and gzip negotiation on the
// operational endpoints.

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"maras/internal/audit"
	"maras/internal/obs"
	"maras/internal/obs/history"
	"maras/internal/resilience"
	"maras/internal/slo"
)

// sloClock is a mutex-free test clock: tests drive it from one
// goroutine and scrapes happen synchronously via hist.Scrape().
type sloClock struct{ t time.Time }

func (c *sloClock) Now() time.Time          { return c.t }
func (c *sloClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// sloStoreHandler builds the store-mode server with a clock-stubbed
// SLO stack in place of the flag-built one: 1s scrape interval, a
// single fast 5s/20s burn rule at 14.4x on a 99.5% availability
// objective, 2s clear cooldown. The routes are rebuilt over the stub.
func sloStoreHandler(t *testing.T, dir string) (http.Handler, *sloStack, *sloClock, *obs.Readiness, *audit.Log) {
	t.Helper()
	_, d := storeHandler(t, dir)
	reg, alog, ready := d.metrics, d.auditor.Log, d.ready
	clock := &sloClock{t: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)}
	hist := history.New(reg, history.Options{
		Interval: time.Second, Retention: 5 * time.Minute, Now: clock.Now,
	})
	eng := slo.NewEngine(hist, slo.Config{
		Objectives: slo.DefaultObjectives(0.995, 0, 0, 0),
		Rules: []slo.BurnRule{{Name: "fast", Short: 5 * time.Second,
			Long: 20 * time.Second, Threshold: 14.4, Severity: audit.SevFail}},
		MinEvents: 1,
		Cooldown:  2 * time.Second,
		Log:       alog,
		Ready:     ready,
		Metrics:   reg,
	})
	hist.OnScrape(eng.Tick)
	slos := &sloStack{hist: hist, eng: eng}
	d.slos, d.ss.slos = slos, slos
	h := routes(d)
	hist.Scrape() // baseline after routes register the HTTP series
	return h, slos, clock, ready, alog
}

// step advances the stubbed clock one interval, fires n requests at
// url through the mux, and scrapes (which ticks the engine).
func sloStep(t *testing.T, h http.Handler, slos *sloStack, clock *sloClock, url string, n int) {
	t.Helper()
	clock.Advance(time.Second)
	for i := 0; i < n; i++ {
		getMux(t, h, url)
	}
	slos.history().Scrape()
}

// TestReadyzFlipsOnSLOFastBurn drives the full breach lifecycle
// through the HTTP surface: clean traffic, then a failpoint turning
// every default-quarter request into a 503 on a cold store (no stale
// copy to degrade to), which burns the availability budget far past
// the fast rule's 14.4x threshold. /readyz must report degraded with
// the slo:availability cause, the breach must land in the audit log,
// and sustained clean traffic after the fault clears must drop the
// flag again.
func TestReadyzFlipsOnSLOFastBurn(t *testing.T) {
	t.Cleanup(resilience.DisableAll)
	h, slos, clock, ready, alog := sloStoreHandler(t, tempStoreDir(t, 1))
	// The store's own breaker/stale machinery can contribute a "store"
	// cause on real-time reset schedules the stubbed clock can't drive,
	// so every assertion here targets the SLO cause specifically.
	sloCause := func() bool {
		for _, c := range ready.DegradedCauses() {
			if c == "slo:availability" {
				return true
			}
		}
		return false
	}

	// Clean phase: /api/quarters never touches snapshot loads.
	for i := 0; i < 3; i++ {
		sloStep(t, h, slos, clock, "/api/quarters", 10)
	}
	if ready.Degraded() {
		t.Fatal("degraded during clean phase")
	}

	// Fault phase: every snapshot load fails and the quarter was never
	// warmed, so /api/signals answers 503.
	if err := resilience.Enable(resilience.FPLoad + "=error"); err != nil {
		t.Fatal(err)
	}
	if rec := getMux(t, h, "/api/signals"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("faulted request status = %d, want 503", rec.Code)
	}
	for i := 0; i < 6 && !sloCause(); i++ {
		sloStep(t, h, slos, clock, "/api/signals", 10)
	}
	if !sloCause() {
		t.Fatal("fast-burn breach did not raise the slo:availability cause")
	}
	if !ready.Degraded() {
		t.Fatal("SLO cause raised but aggregate degraded flag false")
	}
	rec := getMux(t, h, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz while degraded = %d, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"degraded"`) ||
		!strings.Contains(rec.Body.String(), "slo:availability") {
		t.Fatalf("readyz body missing SLO cause: %s", rec.Body.String())
	}
	found := false
	for _, e := range alog.Recent(0) {
		if e.Rule == "slo_burn" && e.Scope == "availability" && e.Severity == audit.SevFail {
			found = true
		}
	}
	if !found {
		t.Error("slo_burn breach event missing from audit log")
	}

	// Recovery: fault off, clean traffic drains the 5s short window,
	// and after the 2s cooldown the engine clears its cause. Traffic
	// goes back to /api/quarters — the store breaker may still be open
	// on its own real-time schedule, and that must not keep the SLO
	// cause alive.
	resilience.DisableAll()
	for i := 0; i < 30 && sloCause(); i++ {
		sloStep(t, h, slos, clock, "/api/quarters", 10)
	}
	if sloCause() {
		t.Fatal("slo:availability cause survived sustained clean traffic")
	}
	rec = getMux(t, h, "/readyz")
	if strings.Contains(rec.Body.String(), "slo:availability") {
		t.Fatalf("readyz still lists the SLO cause after recovery: %s", rec.Body.String())
	}
	recovered := false
	for _, e := range alog.Recent(0) {
		if e.Rule == "slo_recovered" && e.Scope == "availability" {
			recovered = true
		}
	}
	if !recovered {
		t.Error("slo_recovered event missing from audit log")
	}
}

// TestSLOAndHistoryEndpoints exercises the read surfaces: /api/slo
// returns the engine report, /api/history serves the scraped HTTP
// series with window aggregates, and /debug/history renders.
func TestSLOAndHistoryEndpoints(t *testing.T) {
	h, slos, clock, _, _ := sloStoreHandler(t, tempStoreDir(t, 1))
	for i := 0; i < 3; i++ {
		sloStep(t, h, slos, clock, "/api/quarters", 5)
	}

	rec := getMux(t, h, "/api/slo")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/slo status = %d", rec.Code)
	}
	var rep struct {
		Objectives []struct {
			Name         string  `json:"name"`
			PeriodEvents float64 `json:"period_events"`
		} `json:"objectives"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Objectives) != 1 || rep.Objectives[0].Name != "availability" {
		t.Fatalf("/api/slo objectives = %+v", rep.Objectives)
	}
	if rep.Objectives[0].PeriodEvents != 15 {
		t.Errorf("period events = %v, want 15", rep.Objectives[0].PeriodEvents)
	}

	rec = getMux(t, h, "/api/history/http_requests_total?window=1m")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/history status = %d: %s", rec.Code, rec.Body.String())
	}
	if body := rec.Body.String(); !strings.Contains(body, `"http_requests_total"`) ||
		!strings.Contains(body, `"sum"`) {
		t.Errorf("/api/history body missing counter aggregates: %s", body)
	}

	rec = getMux(t, h, "/debug/history")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "http_requests_total") {
		t.Errorf("/debug/history status=%d body=%q", rec.Code, rec.Body.String())
	}

	// The quarters page carries the SLO rollup line.
	rec = getMux(t, h, "/quarters")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "/api/slo") {
		t.Errorf("/quarters missing SLO rollup: status=%d", rec.Code)
	}
}

// TestSLOEndpointsDisabledWithoutStack pins the nil-stack behavior:
// the history and SLO routes answer 404 instead of panicking when the
// server runs with -history-scrape 0.
func TestSLOEndpointsDisabledWithoutStack(t *testing.T) {
	h, _ := storeHandler(t, tempStoreDir(t, 1))
	for _, url := range []string{"/api/slo", "/api/history/http_requests_total", "/debug/history"} {
		if rec := getMux(t, h, url); rec.Code != http.StatusNotFound {
			t.Errorf("%s with nil stack = %d, want 404", url, rec.Code)
		}
	}
	// The quarters page must render without the SLO line.
	if rec := getMux(t, h, "/quarters"); rec.Code != http.StatusOK {
		t.Errorf("/quarters with nil stack = %d", rec.Code)
	}
}

// TestMetricsGzipNegotiated checks the operational endpoints honor
// Accept-Encoding: the same /metrics payload arrives gzip-compressed
// when asked for and identity otherwise.
func TestMetricsGzipNegotiated(t *testing.T) {
	h, slos, clock, _, _ := sloStoreHandler(t, tempStoreDir(t, 1))
	sloStep(t, h, slos, clock, "/api/quarters", 3)

	plain := getMux(t, h, "/metrics")
	if plain.Code != http.StatusOK || plain.Header().Get("Content-Encoding") != "" {
		t.Fatalf("identity /metrics: status=%d enc=%q", plain.Code, plain.Header().Get("Content-Encoding"))
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip /metrics: status=%d enc=%q", rec.Code, rec.Header().Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	unzipped, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	// The exposition is re-rendered per request (runtime-sampled
	// gauges), so compare series presence rather than exact bytes.
	for _, want := range []string{"maras_slo_error_budget_remaining", "http_requests_total", "maras_history_scrapes_total"} {
		if !strings.Contains(string(unzipped), want) {
			t.Errorf("gzipped /metrics missing %q", want)
		}
		if !strings.Contains(plain.Body.String(), want) {
			t.Errorf("identity /metrics missing %q", want)
		}
	}
}
