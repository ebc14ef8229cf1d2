package main

// Operational-surface drift guard, the wide-event incident-view
// acceptance path, and the deps lifecycle. The drift guard pins the
// full set of operational endpoints in BOTH serving modes: a refactor
// that forgets to mount one (or mounts it in only one mode) fails
// here, not in production.

import (
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"maras/internal/audit"
	"maras/internal/obs"
)

// fullArgs switch on every subsystem a server can run, at test
// sizes: tracing, wide events, metrics history with the SLO engine,
// continuous profiling (trigger-only), and a small watch stack.
func fullArgs(t *testing.T) []string {
	return []string{
		"-trace-journal", "32", "-trace-slow", "1h",
		"-wide-events", "1024",
		"-history-scrape", "1s", "-history-retention", "1m",
		"-prof-dir", t.TempDir(), "-prof-interval", "0",
		"-watch-user-cap", "4", "-watch-feed-cap", "8", "-watch-eval-budget", "1s",
	}
}

// fullMine and fullStore build the two serving modes with fullArgs.
func fullMine(t *testing.T) *deps {
	return newTestDeps(t, append(fullArgs(t), mineArgs(t)...)...)
}

func fullStore(t *testing.T) *deps {
	return newTestDeps(t, append(fullArgs(t), "-store", tempStoreDir(t, 1))...)
}

// TestOperationalSurfaceBothModes is the drift guard: every
// operational endpoint must be mounted and answering its expected
// status in both serving modes, built and started exactly as main
// does.
func TestOperationalSurfaceBothModes(t *testing.T) {
	endpoints := []struct {
		url  string
		want int
	}{
		{"/metrics", http.StatusOK},
		{"/healthz", http.StatusOK},
		{"/readyz", http.StatusOK},
		{"/debug/traces", http.StatusOK},
		{"/debug/audit", http.StatusOK},
		{"/debug/history", http.StatusOK},
		{"/debug/vars", http.StatusOK},
		{"/debug/profiles", http.StatusOK},
		{"/debug/events", http.StatusOK},
		{"/debug/diag/", http.StatusBadRequest}, // mounted; an ID is required
		{"/debug/pprof/", http.StatusOK},
		{"/api/history/", http.StatusOK},
		{"/api/slo", http.StatusOK},
		{"/api/watch/stats", http.StatusOK},
	}
	modes := map[string]func(*testing.T) *deps{"mine": fullMine, "store": fullStore}
	for mode, build := range modes {
		t.Run(mode, func(t *testing.T) {
			d := build(t)
			d.start()
			h := d.handler
			for _, ep := range endpoints {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, ep.url, nil))
				if rec.Code != ep.want {
					t.Errorf("%s %s = %d, want %d", mode, ep.url, rec.Code, ep.want)
				}
			}
		})
	}
}

// TestDiagEndToEnd is the acceptance path: an induced slow request is
// retrievable end-to-end at /debug/diag/{request-id} — its wide event,
// its full trace, in-window audit events — and its trace ID appears as
// an exemplar in the OpenMetrics /metrics rendering.
func TestDiagEndToEnd(t *testing.T) {
	d := fullStore(t)
	h := d.handler
	const reqID = "incident0badc0de"

	// Induce the request (slow threshold is irrelevant to retrieval;
	// the cold store load underneath makes it a real multi-span trace).
	req := httptest.NewRequest(http.MethodGet, "/api/signals", nil)
	req.Header.Set(obs.RequestIDHeader, reqID)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("induced request = %d", rec.Code)
	}
	// An audit event lands inside the correlation window.
	d.auditor.Log.Record(audit.Event{Rule: "incident_marker", Severity: audit.SevWarn,
		Scope: "2014Q1", Message: "synthetic incident for diag test"})

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/diag/"+reqID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/diag/%s = %d: %s", reqID, rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	for _, want := range []string{
		"id=" + reqID,     // the wide event
		"trace " + reqID,  // the joined span tree
		"store_load",      // the trace's real spans
		"incident_marker", // the in-window audit event
	} {
		if !strings.Contains(body, want) {
			t.Errorf("diag view missing %q:\n%s", want, body)
		}
	}

	// The latency histogram's OpenMetrics rendering links the trace.
	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), `trace_id="`+reqID+`"`) {
		t.Error("OpenMetrics exposition missing the request's exemplar")
	}
	if !strings.Contains(rec.Body.String(), "# EOF") {
		t.Error("OpenMetrics exposition missing # EOF terminator")
	}

	// And /debug/events can query it back out.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/events?where=id="+reqID, nil))
	if !strings.Contains(rec.Body.String(), "cache=lru_miss") {
		t.Errorf("/debug/events missing the request event:\n%s", rec.Body.String())
	}
}

// TestProfilesGzipNegotiation pins satellite behavior: the profile
// index compresses for gzip-accepting clients while artifact downloads
// (application/octet-stream) stay identity-encoded.
func TestProfilesGzipNegotiation(t *testing.T) {
	d := fullMine(t)
	if _, err := d.captor.Store().Add("cpu", "test", "", "", []byte("pprofdata"), 0); err != nil {
		t.Fatal(err)
	}
	h := d.handler

	get := func(url string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	rec := get("/debug/profiles")
	if rec.Header().Get("Content-Encoding") != "gzip" {
		t.Errorf("profile index not gzipped: %v", rec.Header())
	}
	zr, err := gzip.NewReader(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(zr)
	if !strings.Contains(string(idx), "000000-cpu") {
		t.Errorf("index missing artifact: %s", idx)
	}
	rec = get("/debug/profiles/000000-cpu")
	if rec.Code != http.StatusOK {
		t.Fatalf("artifact download = %d", rec.Code)
	}
	if rec.Header().Get("Content-Encoding") == "gzip" {
		t.Error("octet-stream artifact download must stay uncompressed")
	}
	if rec.Body.String() != "pprofdata" {
		t.Errorf("artifact bytes = %q", rec.Body.String())
	}
}

// TestWatchRoutesGzip pins satellite behavior: the watch JSON GETs
// negotiate gzip.
func TestWatchRoutesGzip(t *testing.T) {
	h := fullMine(t).handler
	for _, url := range []string{"/api/watchlists?user=alice", "/api/watch/stats"} {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", url, rec.Code)
		}
		if rec.Header().Get("Content-Encoding") != "gzip" {
			t.Errorf("%s not gzipped: %v", url, rec.Header())
		}
	}
}

// TestDepsCloseStopsEverything builds and starts both serving modes
// with every background loop on — profiling, the runtime sampler,
// metrics history, and (store mode) replica sync and rescan against a
// peer list — then checks Close leaves no goroutine behind, removes
// the mining server's temporary registry, and is idempotent.
func TestDepsCloseStopsEverything(t *testing.T) {
	for _, mode := range []string{"mine", "store"} {
		t.Run(mode, func(t *testing.T) {
			args := append(fullArgs(t), "-runtime-sample", "50ms", "-prof-interval", "1h")
			if mode == "mine" {
				args = append(args, mineArgs(t)...)
			} else {
				args = append(args, "-store", tempStoreDir(t, 2), "-peers", "http://127.0.0.1:1",
					"-sync-interval", "1h", "-rescan-interval", "1h")
			}
			base := runtime.NumGoroutine()
			d := buildDeps(t, args...)
			d.start()
			if rec := getMux(t, d.handler, "/api/signals"); rec.Code != http.StatusOK {
				t.Fatalf("/api/signals = %d", rec.Code)
			}
			if n := runtime.NumGoroutine(); n <= base {
				t.Fatalf("goroutines %d after start, want more than %d", n, base)
			}
			dir := d.ss.reg.Dir()

			d.Close()
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines = %d after Close, want <= %d", runtime.NumGoroutine(), base)
				}
				time.Sleep(10 * time.Millisecond)
			}
			_, err := os.Stat(dir)
			switch {
			case mode == "mine" && !os.IsNotExist(err):
				t.Errorf("temporary registry %s survived Close (stat err %v)", dir, err)
			case mode == "store" && err != nil:
				t.Errorf("Close touched the -store directory: %v", err)
			}
			d.Close() // a second Close is a no-op
		})
	}
}
