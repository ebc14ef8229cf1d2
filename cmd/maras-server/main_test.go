package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/obs"
)

// fixtureReports is a tiny quarter with one strong interaction:
// ASPIRIN+WARFARIN => Haemorrhage over single-drug background.
func fixtureReports() []faers.Report {
	var reports []faers.Report
	id := 0
	add := func(drugs, reacs []string) {
		id++
		reports = append(reports, faers.Report{
			PrimaryID: fmt.Sprintf("%d", 1000+id), CaseID: fmt.Sprintf("c%d", id),
			ReportCode: "EXP", Drugs: drugs, Reactions: reacs,
		})
	}
	for i := 0; i < 10; i++ {
		add([]string{"ASPIRIN", "WARFARIN"}, []string{"Haemorrhage"})
	}
	for i := 0; i < 20; i++ {
		add([]string{"ASPIRIN"}, []string{"Nausea"})
		add([]string{"WARFARIN"}, []string{"Dizziness"})
	}
	return reports
}

func testServer(t *testing.T) *server {
	t.Helper()
	opts := core.NewOptions()
	opts.MinSupport = 3
	a, err := core.Run(fixtureReports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Signals) == 0 {
		t.Fatal("no signals for server fixture")
	}
	return &server{analysis: a, quarter: "2014Q1"}
}

func get(t *testing.T, h http.HandlerFunc, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h(rec, req)
	return rec
}

func TestIndexPage(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleIndex, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"MARAS", "2014Q1", "/signal/1", "/glyph/1"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
}

func TestIndexSearch(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleIndex, "/?q=aspirin")
	body := rec.Body.String()
	if !strings.Contains(body, "ASPIRIN") {
		t.Error("search for aspirin found nothing")
	}
	rec = get(t, s.handleIndex, "/?q=nosuchdrug")
	if strings.Contains(rec.Body.String(), "/signal/1") {
		t.Error("search for unknown drug should return no cards")
	}
}

func TestIndexNotFoundPath(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleIndex, "/bogus")
	if rec.Code != http.StatusNotFound {
		t.Errorf("status = %d, want 404", rec.Code)
	}
}

func TestSignalPage(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleSignal, "/signal/1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"ASPIRIN", "WARFARIN", "Haemorrhage", "Known interaction", "Supporting reports"} {
		if !strings.Contains(body, want) {
			t.Errorf("signal page missing %q", want)
		}
	}
}

func TestSignalOutOfRange(t *testing.T) {
	s := testServer(t)
	for _, url := range []string{"/signal/0", "/signal/9999", "/signal/abc"} {
		if rec := get(t, s.handleSignal, url); rec.Code != http.StatusNotFound {
			t.Errorf("%s: status = %d, want 404", url, rec.Code)
		}
	}
}

func TestGlyphSVG(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleGlyph, "/glyph/1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("content type = %q", ct)
	}
	if !strings.HasPrefix(rec.Body.String(), "<svg") {
		t.Error("not svg")
	}
	zoom := get(t, s.handleGlyph, "/glyph/1?zoom=1")
	if len(zoom.Body.String()) <= len(rec.Body.String()) {
		t.Error("zoom view should be richer than the card glyph")
	}
}

func TestReportPage(t *testing.T) {
	s := testServer(t)
	id := s.analysis.Signals[0].ReportIDs[0]
	rec := get(t, s.handleReport, "/report/"+id)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{id, "ASPIRIN", "Haemorrhage"} {
		if !strings.Contains(body, want) {
			t.Errorf("report page missing %q", want)
		}
	}
	if rec := get(t, s.handleReport, "/report/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("missing report: status %d, want 404", rec.Code)
	}
}

func TestAPISignals(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleAPISignals, "/api/signals")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var out []struct {
		Rank    int      `json:"rank"`
		Drugs   []string `json:"drugs"`
		Support int      `json:"support"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad json: %v", err)
	}
	if len(out) == 0 || out[0].Rank != 1 || len(out[0].Drugs) < 2 {
		t.Errorf("api payload wrong: %+v", out)
	}
}

func TestNetworkEndpoints(t *testing.T) {
	s := testServer(t)
	dot := get(t, s.handleNetworkDOT, "/network.dot")
	if dot.Code != http.StatusOK || !strings.HasPrefix(dot.Body.String(), "graph maras") {
		t.Errorf("network.dot: %d %q", dot.Code, dot.Body.String()[:30])
	}
	if !strings.Contains(dot.Body.String(), "ASPIRIN") {
		t.Error("network.dot missing drugs")
	}
	js := get(t, s.handleNetworkJSON, "/network.json")
	if js.Code != http.StatusOK {
		t.Fatalf("network.json status %d", js.Code)
	}
	var out struct {
		Nodes []struct {
			Drug string `json:"drug"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(js.Body.Bytes(), &out); err != nil {
		t.Fatalf("network.json invalid: %v", err)
	}
	if len(out.Nodes) == 0 {
		t.Error("network.json empty")
	}
}

func TestSignalDemographicsShown(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleSignal, "/signal/1")
	if !strings.Contains(rec.Body.String(), "Demographics of supporting reports") {
		t.Error("demographics section missing")
	}
}

func TestBarChartSVG(t *testing.T) {
	s := testServer(t)
	rec := get(t, s.handleBarChart, "/barchart/1")
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "<svg") {
		t.Fatalf("barchart: status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "<rect") {
		t.Error("no bars rendered")
	}
}

// testArgs are the flags every test server starts from: quiet logs,
// and the background telemetry the tests do not exercise switched
// off (later flags in a test's own args win).
var testArgs = []string{"-log-level", "error", "-trace-journal", "0", "-wide-events", "0",
	"-runtime-sample", "0", "-history-scrape", "0", "-max-inflight", "0"}

// buildDeps builds a server through newDeps — the wiring main runs —
// from testArgs plus args. The caller closes it.
func buildDeps(t *testing.T, args ...string) *deps {
	t.Helper()
	cfg, err := parseConfig(flag.NewFlagSet("maras-server", flag.ContinueOnError),
		append(append([]string{}, testArgs...), args...))
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDeps(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// newTestDeps is buildDeps closed when the test ends and marked ready
// without starting the background loops, so the registry holds
// exactly what the test's own requests put there.
func newTestDeps(t *testing.T, args ...string) *deps {
	t.Helper()
	d := buildDeps(t, args...)
	t.Cleanup(d.Close)
	d.ready.SetReady()
	return d
}

// mineArgs points a mining server at testServer's reports written out
// as a FAERS quarter (2014Q1) on disk.
func mineArgs(t *testing.T) []string {
	t.Helper()
	q := &faers.Quarter{Label: "2014Q1"}
	for _, r := range fixtureReports() {
		q.Demos = append(q.Demos, faers.Demo{PrimaryID: r.PrimaryID, CaseID: r.CaseID, ReportCode: r.ReportCode})
		for j, drug := range r.Drugs {
			q.Drugs = append(q.Drugs, faers.Drug{PrimaryID: r.PrimaryID, Seq: j + 1, RoleCode: "PS", Name: drug})
		}
		for _, term := range r.Reactions {
			q.Reacs = append(q.Reacs, faers.Reac{PrimaryID: r.PrimaryID, Term: term})
		}
	}
	dir := t.TempDir()
	if err := faers.SaveQuarter(dir, q); err != nil {
		t.Fatal(err)
	}
	return []string{"-data", dir, "-quarter", "2014Q1", "-minsup", "3"}
}

// testHandler builds the mining server over the mineArgs fixture.
func testHandler(t *testing.T, args ...string) (http.Handler, *deps) {
	t.Helper()
	d := newTestDeps(t, append(mineArgs(t), args...)...)
	return d.handler, d
}

func getMux(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec
}

func TestMetricsEndpointBothFormats(t *testing.T) {
	h, _ := testHandler(t)
	// Generate some traffic so per-route series exist and move.
	for i := 0; i < 2; i++ {
		getMux(t, h, "/")
		getMux(t, h, "/signal/1")
	}
	getMux(t, h, "/signal/9999") // a 404
	getMux(t, h, "/q/2014Q1/api/signals")

	prom := getMux(t, h, "/metrics")
	if prom.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", prom.Code)
	}
	body := prom.Body.String()
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		// The default quarter's pages all count under route "/", any
		// quarter's under "/q/".
		`http_requests_total{route="/",code="2xx"} 4`,
		`http_requests_total{route="/",code="4xx"} 1`,
		`http_requests_total{route="/q/",code="2xx"} 1`,
		"# TYPE http_request_duration_seconds histogram",
		`http_request_duration_seconds_count{route="/"} 5`,
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	jsonRec := getMux(t, h, "/metrics?format=json")
	var dump map[string]json.RawMessage
	if err := json.Unmarshal(jsonRec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("/metrics?format=json invalid: %v", err)
	}
	if _, ok := dump["memstats"]; !ok {
		t.Error("expvar dump missing memstats")
	}
}

func TestHealthzEndpoint(t *testing.T) {
	h, d := testHandler(t)
	rec := getMux(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status = %d", rec.Code)
	}
	var body struct {
		Status   string `json:"status"`
		Mode     string `json:"mode"`
		StoreDir string `json:"store_dir"`
		Quarters int    `json:"quarters"`
		Default  string `json:"default"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	// The mining server reports the detail of its one-quarter registry.
	if body.Status != "ok" || body.Mode != "mine" || body.Quarters != 1 ||
		body.Default != "2014Q1" || body.StoreDir != d.ss.reg.Dir() {
		t.Errorf("healthz = %+v", body)
	}
}

func TestDebugEndpointsWired(t *testing.T) {
	h, _ := testHandler(t)
	if rec := getMux(t, h, "/debug/vars"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "memstats") {
		t.Errorf("/debug/vars: status %d", rec.Code)
	}
	if rec := getMux(t, h, "/debug/pprof/"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("/debug/pprof/: status %d", rec.Code)
	}
}

func TestSVGResponsesCacheable(t *testing.T) {
	h, _ := testHandler(t)
	for _, url := range []string{"/glyph/1", "/barchart/1"} {
		rec := getMux(t, h, url)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status = %d", url, rec.Code)
		}
		if cc := rec.Header().Get("Cache-Control"); !strings.Contains(cc, "immutable") {
			t.Errorf("%s Cache-Control = %q, want immutable", url, cc)
		}
	}
	// HTML pages must not carry the immutable header.
	if cc := getMux(t, h, "/").Header().Get("Cache-Control"); strings.Contains(cc, "immutable") {
		t.Errorf("index page marked immutable: %q", cc)
	}
}

func TestIndexContentTypeSet(t *testing.T) {
	h, _ := testHandler(t)
	rec := getMux(t, h, "/")
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("index content type = %q", ct)
	}
}

func TestHealthDetailUptimeNonNegative(t *testing.T) {
	_, d := testHandler(t)
	d.started = time.Now().Add(-2 * time.Second)
	detail := d.healthDetail()
	if up, ok := detail["uptime_seconds"].(int64); !ok || up < 2 {
		t.Errorf("uptime_seconds = %v", detail["uptime_seconds"])
	}
}

// TestReadyzEndpoint: liveness and readiness must diverge — /healthz
// answers ok from boot, /readyz gates on the readiness latch that
// deps.start flips.
func TestReadyzEndpoint(t *testing.T) {
	d := buildDeps(t, mineArgs(t)...)
	defer d.Close()
	h := d.handler

	if rec := getMux(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("/healthz before ready = %d, want 200 (liveness is unconditional)", rec.Code)
	}
	rec := getMux(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before ready = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "unavailable") {
		t.Errorf("pre-ready body = %q", rec.Body.String())
	}

	d.start()
	rec = getMux(t, h, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz after ready = %d, want 200", rec.Code)
	}
	var body struct {
		Status  string `json:"status"`
		Default string `json:"default"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ready" || body.Default != "2014Q1" {
		t.Errorf("readyz detail = %+v", body)
	}
}

// TestRequestIDThroughMux: the full mux honors an inbound request ID
// and mints one otherwise.
func TestRequestIDThroughMux(t *testing.T) {
	h, _ := testHandler(t)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(obs.RequestIDHeader, "mux-level-7")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(obs.RequestIDHeader); got != "mux-level-7" {
		t.Errorf("inbound ID not echoed: %q", got)
	}
	rec = getMux(t, h, "/")
	if got := rec.Header().Get(obs.RequestIDHeader); !obs.ValidRequestID(got) || len(got) != 16 {
		t.Errorf("generated ID malformed: %q", got)
	}
}

// TestTracedRequestLandsInJournal: a UI request through the traced mux
// produces a journal trace with the HTTP root span and the handler's
// render child span, inspectable at /debug/traces.
func TestTracedRequestLandsInJournal(t *testing.T) {
	h, d := testHandler(t, "-trace-journal", "16", "-trace-slow", "1h")
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(obs.RequestIDHeader, "ui-trace-1")
	h.ServeHTTP(httptest.NewRecorder(), req)

	// Newest first: the request, then the startup mine.
	recent := d.journal.Recent(0)
	if len(recent) != 2 || recent[1].ID != "startup" {
		t.Fatalf("journal traces = %+v, want the request and the startup mine", recent)
	}
	tr := recent[0]
	if tr.ID != "ui-trace-1" || tr.Name != "GET /" {
		t.Errorf("trace identity = %q %q", tr.ID, tr.Name)
	}
	var rootID = -2
	for _, sp := range tr.Spans {
		if sp.Parent == -1 {
			rootID = sp.ID
		}
	}
	foundRender := false
	for _, sp := range tr.Spans {
		if sp.Name == "render:index" && sp.Parent == rootID {
			foundRender = true
		}
	}
	if !foundRender {
		t.Errorf("render:index child missing: %+v", tr.Spans)
	}

	// And the journal endpoint shows it.
	rec := getMux(t, h, "/debug/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"ui-trace-1", "GET /", "render:index"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/traces missing %q:\n%s", want, body)
		}
	}
}

// TestTracesEndpointDisabled404s: with -trace-journal 0 the route is
// mounted but answers 404.
func TestTracesEndpoint404WhenDisabled(t *testing.T) {
	h, _ := testHandler(t) // journal nil
	if rec := getMux(t, h, "/debug/traces"); rec.Code != http.StatusNotFound {
		t.Errorf("/debug/traces with tracing off = %d, want 404", rec.Code)
	}
}
