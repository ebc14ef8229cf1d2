package main

// Server-level watchlist tests: CRUD validation through the HTTP
// surface, alert feed cursor semantics, the zero-duplicate-alerts
// guarantee on quarter re-loads, persistence across a restart, and
// the maras_watch_* series reaching /metrics and /api/history.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"maras/internal/audit"
	"maras/internal/store"
	"maras/internal/watch"
)

// watchStoreHandler builds the store-mode server with a small watch
// stack (user cap 3, feed cap 16) persisting to file ("" = the
// default next to the snapshots).
func watchStoreHandler(t *testing.T, dir, file string, args ...string) (http.Handler, *deps) {
	t.Helper()
	return storeHandler(t, dir, append([]string{"-watch-file", file,
		"-watch-user-cap", "3", "-watch-feed-cap", "16", "-watch-eval-budget", "1s"}, args...)...)
}

func postJSON(t *testing.T, h http.Handler, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

func doMux(t *testing.T, h http.Handler, method, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, nil))
	return rec
}

func TestWatchlistCRUD(t *testing.T) {
	h, _ := watchStoreHandler(t, tempStoreDir(t, 1), "")

	rec := postJSON(t, h, "/api/watchlists",
		`{"user":"alice","name":"bleeding","drugs":["aspirin","warfarin"],"severity_floor":"moderate"}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body)
	}
	var created watch.Watchlist
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || created.Drugs[0] != "ASPIRIN" || created.SeverityFloor != "moderate" {
		t.Fatalf("created = %+v", created)
	}

	rec = getMux(t, h, "/api/watchlists?user=alice")
	var listing struct {
		Watchlists []watch.Watchlist `json:"watchlists"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Watchlists) != 1 || listing.Watchlists[0].ID != created.ID {
		t.Fatalf("listing = %+v", listing)
	}

	if rec := getMux(t, h, "/api/watchlists/"+created.ID); rec.Code != http.StatusOK {
		t.Fatalf("get by id = %d", rec.Code)
	}
	if rec := doMux(t, h, http.MethodDelete, "/api/watchlists/"+created.ID); rec.Code != http.StatusNoContent {
		t.Fatalf("delete = %d", rec.Code)
	}
	if rec := getMux(t, h, "/api/watchlists/"+created.ID); rec.Code != http.StatusNotFound {
		t.Fatalf("get after delete = %d", rec.Code)
	}
	if rec := doMux(t, h, http.MethodDelete, "/api/watchlists/"+created.ID); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete = %d", rec.Code)
	}
}

func TestWatchlistValidationFailures(t *testing.T) {
	h, _ := watchStoreHandler(t, tempStoreDir(t, 1), "")

	// Malformed and unknown-field JSON.
	if rec := postJSON(t, h, "/api/watchlists", `{"user":`); rec.Code != http.StatusBadRequest {
		t.Errorf("truncated JSON = %d", rec.Code)
	}
	if rec := postJSON(t, h, "/api/watchlists", `{"user":"u","drugs":["A"],"nope":1}`); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field = %d", rec.Code)
	}
	// Validation: no terms, bad severity, negative threshold.
	if rec := postJSON(t, h, "/api/watchlists", `{"user":"u"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("no terms = %d", rec.Code)
	}
	if rec := postJSON(t, h, "/api/watchlists", `{"user":"u","drugs":["A"],"severity_floor":"fatal"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad severity floor = %d", rec.Code)
	}
	if rec := postJSON(t, h, "/api/watchlists", `{"user":"u","drugs":["A"],"min_score":-1}`); rec.Code != http.StatusBadRequest {
		t.Errorf("negative threshold = %d", rec.Code)
	}

	// Unknown drug: before any quarter loads the vocabulary is empty
	// and anything passes; after a load, a drug the store has never
	// seen is rejected.
	if rec := getMux(t, h, "/api/signals"); rec.Code != http.StatusOK {
		t.Fatalf("quarter load = %d", rec.Code)
	}
	if rec := postJSON(t, h, "/api/watchlists", `{"user":"u","drugs":["ZZZNOTADRUG"]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown drug = %d: %s", rec.Code, rec.Body)
	}
	if rec := postJSON(t, h, "/api/watchlists", `{"user":"u","drugs":["aspirin"]}`); rec.Code != http.StatusCreated {
		t.Errorf("known drug after load = %d: %s", rec.Code, rec.Body)
	}

	// Per-user cap (3 in this harness) answers 409.
	for i := 0; i < 2; i++ {
		if rec := postJSON(t, h, "/api/watchlists", `{"user":"u","drugs":["warfarin"]}`); rec.Code != http.StatusCreated {
			t.Fatalf("fill cap = %d", rec.Code)
		}
	}
	if rec := postJSON(t, h, "/api/watchlists", `{"user":"u","drugs":["warfarin"]}`); rec.Code != http.StatusConflict {
		t.Errorf("over cap = %d", rec.Code)
	}
}

type alertsResponse struct {
	User      string        `json:"user"`
	Since     uint64        `json:"since"`
	NextSince uint64        `json:"next_since"`
	Alerts    []watch.Alert `json:"alerts"`
}

func getAlerts(t *testing.T, h http.Handler, url string) alertsResponse {
	t.Helper()
	rec := getMux(t, h, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s = %d: %s", url, rec.Code, rec.Body)
	}
	var out alertsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// The acceptance test for alert dedup: a quarter load fires alerts
// once; re-decoding the same bytes (Save invalidates the resident
// entry, the next load re-fires OnLoad) fires nothing new.
func TestWatchAlertsFireOnceAndCursor(t *testing.T) {
	h, d := watchStoreHandler(t, tempStoreDir(t, 1), "")

	if rec := postJSON(t, h, "/api/watchlists",
		`{"user":"alice","drugs":["aspirin"]}`); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d", rec.Code)
	}
	// First quarter load evaluates and alerts on ASPIRIN+WARFARIN.
	if rec := getMux(t, h, "/api/signals"); rec.Code != http.StatusOK {
		t.Fatalf("load = %d", rec.Code)
	}
	got := getAlerts(t, h, "/api/alerts/alice")
	if len(got.Alerts) == 0 {
		t.Fatal("no alerts after first quarter load")
	}
	first := len(got.Alerts)
	a := got.Alerts[0]
	if a.Kind != "signal" || a.Quarter != "2014Q1" || !strings.Contains(a.SignalKey, "ASPIRIN") {
		t.Fatalf("alert = %+v", a)
	}
	if got.NextSince != got.Alerts[first-1].Seq {
		t.Fatalf("next_since = %d, last seq %d", got.NextSince, got.Alerts[first-1].Seq)
	}

	// Cursor: polling from next_since returns nothing and echoes the
	// cursor back.
	again := getAlerts(t, h, "/api/alerts/alice?since="+strings.TrimSpace(jsonUint(got.NextSince)))
	if len(again.Alerts) != 0 || again.NextSince != got.NextSince {
		t.Fatalf("cursor poll = %+v", again)
	}

	// Re-load the same quarter: Save drops the resident entry, the
	// next load re-decodes and re-evaluates — fingerprints unchanged,
	// zero duplicate alerts.
	a2, err := d.ss.reg.Load("2014Q1")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ss.reg.Save("2014Q1", a2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ss.reg.Load("2014Q1"); err != nil {
		t.Fatal(err)
	}
	after := getAlerts(t, h, "/api/alerts/alice")
	if len(after.Alerts) != first {
		t.Fatalf("re-load duplicated alerts: %d -> %d", first, len(after.Alerts))
	}

	// Bad cursor values are 400s.
	if rec := getMux(t, h, "/api/alerts/alice?since=banana"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad since = %d", rec.Code)
	}
	if rec := getMux(t, h, "/api/alerts/alice?n=0"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad n = %d", rec.Code)
	}
}

// A drift event marks a quarter for a full re-route; a watchlist
// created afterwards gets its alert when the quarter next comes back
// into the LRU, even when that load promotes the retained copy instead
// of decoding. A later clean promotion fires nothing more.
func TestDirtyQuarterPromotionDeliversAlerts(t *testing.T) {
	h, d := watchStoreHandler(t, tempStoreDir(t, store.DefaultMaxOpen+1), "")
	load := func(label string) {
		t.Helper()
		if rec := getMux(t, h, "/q/"+label+"/api/signals"); rec.Code != http.StatusOK {
			t.Fatalf("load %s = %d", label, rec.Code)
		}
	}
	evictQ1 := func() {
		t.Helper()
		for i := 2; i <= store.DefaultMaxOpen+1; i++ {
			load(fmt.Sprintf("2014Q%d", i))
		}
	}
	q1Alerts := func() int {
		t.Helper()
		n := 0
		for _, a := range getAlerts(t, h, "/api/alerts/alice").Alerts {
			if a.Quarter == "2014Q1" {
				n++
			}
		}
		return n
	}

	load("2014Q1") // evaluated with no watchlists: nothing fires
	d.auditor.Log.Record(audit.Event{Rule: audit.RuleChurn, Severity: audit.SevWarn,
		Scope: "2014Q5->2014Q1", Message: "churned"})
	if rec := postJSON(t, h, "/api/watchlists",
		`{"user":"alice","drugs":["aspirin"]}`); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d", rec.Code)
	}
	evictQ1()
	promotions := func() int64 { return d.metrics.Counter("maras_store_promotions_total", "").Value() }
	before := promotions()
	load("2014Q1")
	if promotions() != before+1 {
		t.Fatalf("2014Q1 reload was not a promotion (promotions %d -> %d)", before, promotions())
	}
	if n := q1Alerts(); n != 1 {
		t.Fatalf("2014Q1 alerts after the dirty promotion = %d, want 1", n)
	}

	evictQ1()
	load("2014Q1")
	if n := q1Alerts(); n != 1 {
		t.Errorf("2014Q1 alerts after a clean promotion = %d, want still 1", n)
	}
}

func jsonUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// Watchlists survive a restart via the snapshot file, and the ID
// counter resumes past persisted lists.
func TestWatchlistPersistenceAcrossRestart(t *testing.T) {
	dir := tempStoreDir(t, 1)
	file := filepath.Join(t.TempDir(), "watchlists.mrwl")

	h, _ := watchStoreHandler(t, dir, file)
	rec := postJSON(t, h, "/api/watchlists", `{"user":"alice","drugs":["aspirin"]}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d", rec.Code)
	}
	var created watch.Watchlist
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}

	h2, d2 := watchStoreHandler(t, dir, file)
	if rec := getMux(t, h2, "/api/watchlists/"+created.ID); rec.Code != http.StatusOK {
		t.Fatalf("restarted get = %d", rec.Code)
	}
	if d2.ws.ix.Len() != 1 {
		t.Fatalf("restarted index has %d lists", d2.ws.ix.Len())
	}
	rec = postJSON(t, h2, "/api/watchlists", `{"user":"bob","drugs":["warfarin"]}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("post-restart create = %d", rec.Code)
	}
	var next watch.Watchlist
	if err := json.Unmarshal(rec.Body.Bytes(), &next); err != nil {
		t.Fatal(err)
	}
	if next.ID == created.ID {
		t.Fatalf("ID counter did not resume: %s reused", next.ID)
	}
}

// The maras_watch_* series reach /metrics and, once scraped, the
// /api/history surface.
func TestWatchMetricsAndHistory(t *testing.T) {
	h, d := watchStoreHandler(t, tempStoreDir(t, 1), "", "-history-scrape", "1s", "-history-retention", "1h")
	hist := d.slos.history()

	if rec := postJSON(t, h, "/api/watchlists", `{"user":"alice","drugs":["aspirin"]}`); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d", rec.Code)
	}
	if rec := getMux(t, h, "/api/signals"); rec.Code != http.StatusOK {
		t.Fatalf("load = %d", rec.Code)
	}
	hist.Scrape()

	metrics := getMux(t, h, "/metrics")
	for _, want := range []string{
		"maras_watch_lists 1",
		"maras_watch_evaluations_total 1",
		"maras_watch_alerts_total",
		"maras_watch_eval_seconds_bucket",
	} {
		if !strings.Contains(metrics.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	rec := getMux(t, h, "/api/history/maras_watch_alerts_total")
	if rec.Code != http.StatusOK {
		t.Fatalf("/api/history/maras_watch_alerts_total = %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "maras_watch_alerts_total") {
		t.Fatalf("history body = %s", rec.Body)
	}

	// The watch stats endpoint rolls the same numbers up as JSON.
	var stats struct {
		Index watch.IndexStats `json:"index"`
		Eval  watch.EvalStats  `json:"eval"`
	}
	rec = getMux(t, h, "/api/watch/stats")
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Index.Lists != 1 || stats.Eval.Evaluations != 1 || stats.Eval.LastResult.Alerts == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// The alert feed negotiates gzip like the other operational JSON
// surfaces.
func TestWatchAlertsGzip(t *testing.T) {
	h, _ := watchStoreHandler(t, tempStoreDir(t, 1), "")
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/api/alerts/alice", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("code=%d encoding=%q", rec.Code, rec.Header().Get("Content-Encoding"))
	}
}
