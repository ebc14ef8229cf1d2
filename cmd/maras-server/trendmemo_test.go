package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/obs"
	"maras/internal/store"
	"maras/internal/trend"
)

// referenceTimeline is the /api/timeline body as the route built it on
// every request before its bodies were memoised.
func referenceTimeline(traj *trend.Trajectory) any {
	points := make([]timelinePoint, len(traj.Points))
	for i, p := range traj.Points {
		points[i] = timelinePoint{Quarter: p.Quarter, Rank: p.Rank, Score: p.Score,
			Support: p.Support, Confidence: p.Confidence}
	}
	return struct {
		Key       string          `json:"key"`
		Drugs     []string        `json:"drugs"`
		Reactions []string        `json:"reactions"`
		Class     trend.Class     `json:"class"`
		EmergedAt string          `json:"emerged_at,omitempty"`
		Points    []timelinePoint `json:"points"`
	}{
		Key: traj.Key, Drugs: traj.Drugs, Reactions: traj.Reactions,
		Class: traj.Classify(), EmergedAt: traj.EmergedAt(), Points: points,
	}
}

// serveGzip sends a GET with or without Accept-Encoding: gzip.
func serveGzip(h http.Handler, url string, gz bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// plainBody returns rec's body, decompressed when it is gzipped.
func plainBody(t *testing.T, rec *httptest.ResponseRecorder) []byte {
	t.Helper()
	if rec.Header().Get("Content-Encoding") != "gzip" {
		return rec.Body.Bytes()
	}
	zr, err := gzip.NewReader(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// sameResponse checks got against the reference response want: status,
// the negotiation headers and the (decompressed) body.
func sameResponse(t *testing.T, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code {
		t.Errorf("%s: status %d, want %d", what, got.Code, want.Code)
	}
	for _, h := range []string{"Content-Type", "Content-Encoding", "Vary"} {
		if g, w := got.Header().Values(h), want.Header().Values(h); !slices.Equal(g, w) {
			t.Errorf("%s: %s = %q, want %q", what, h, g, w)
		}
	}
	if g, w := plainBody(t, got), plainBody(t, want); !bytes.Equal(g, w) {
		t.Errorf("%s: body differs from the reference\n got %s\nwant %s", what, g, w)
	}
}

// referenceJSON serves v the way the drift and timeline routes did
// before memoisation: json.Marshal per request behind GzipHandler.
func referenceJSON(t *testing.T, v any, gz bool) *httptest.ResponseRecorder {
	t.Helper()
	h := obs.GzipHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	return serveGzip(h, "/", gz)
}

// checkTrendRoutes compares the drift of every adjacent pair and the
// ASPIRIN+WARFARIN timeline with references computed from the registry
// directly, for gzip and identity clients, first request and repeat.
func checkTrendRoutes(t *testing.T, h http.Handler, d *deps, stage string) {
	t.Helper()
	labels := d.ss.reg.Quarters()
	for _, gz := range []bool{false, true} {
		for round := 0; round < 2; round++ {
			what := fmt.Sprintf("%s gzip=%v round %d", stage, gz, round)
			for i := 1; i < len(labels); i++ {
				ref, err := d.ss.reg.Drift(labels[i-1], labels[i])
				if err != nil {
					t.Fatal(err)
				}
				url := "/api/drift/" + labels[i-1] + "/" + labels[i]
				sameResponse(t, what+" "+url, serveGzip(h, url, gz), referenceJSON(t, ref, gz))
			}
			_, traj, err := d.ss.reg.Timeline("ASPIRIN+WARFARIN")
			if err != nil || traj == nil {
				t.Fatalf("reference timeline: %v, %v", traj, err)
			}
			sameResponse(t, what+" timeline", serveGzip(h, "/api/timeline/warfarin+aspirin", gz),
				referenceJSON(t, referenceTimeline(traj), gz))
		}
	}
}

// memoKeys lists the memo's entries and reports whether it holds the
// registry's current assembly.
func memoKeys(t *testing.T, d *deps) ([]memoKey, bool) {
	t.Helper()
	ta, err := d.ss.reg.TrendAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	m := d.ss.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	var keys []memoKey
	for k := range m.entries {
		keys = append(keys, k)
	}
	return keys, m.ta == ta
}

// TestTrendRoutesServeReferenceBodies: memoised drift and timeline
// responses carry the status, headers and bytes the per-request
// encoding produced, for both kinds of client, on a first request and
// on a repeat served from the memo.
func TestTrendRoutesServeReferenceBodies(t *testing.T) {
	h, d := storeHandler(t, tempStoreDir(t, 3))
	checkTrendRoutes(t, h, d, "fresh")
	keys, current := memoKeys(t, d)
	if !current || len(keys) != 3 {
		t.Errorf("memo holds %v (current assembly %v), want 2 drift pairs and 1 timeline", keys, current)
	}
}

// TestTrendRoutesErrorMessages: the 400, 404 and 500 answers of both
// routes keep their status and message.
func TestTrendRoutesErrorMessages(t *testing.T) {
	h, _ := storeHandler(t, tempStoreDir(t, 3))
	for url, want := range map[string]struct {
		code int
		msg  string
	}{
		"/api/drift/2014Q1":        {http.StatusBadRequest, "usage: /api/drift/{from}/{to}"},
		"/api/drift/2014Q1/a/b":    {http.StatusBadRequest, "usage: /api/drift/{from}/{to}"},
		"/api/drift/2014Q1/2014Q1": {http.StatusBadRequest, "drift needs two distinct quarters"},
		"/api/drift/2014Q1/2099Q9": {http.StatusNotFound, `quarter "2099Q9" not in store`},
		"/api/drift/2099Q9/2014Q1": {http.StatusNotFound, `quarter "2099Q9" not in store`},
		"/api/timeline/":           {http.StatusBadRequest, "usage: /api/timeline/DRUG+DRUG"},
		"/api/timeline/nope+nada":  {http.StatusNotFound, `combination "NADA+NOPE" never signaled in 3 stored quarters`},
	} {
		for _, gz := range []bool{false, true} {
			rec := serveGzip(h, url, gz)
			if body := strings.TrimSpace(string(plainBody(t, rec))); rec.Code != want.code || body != want.msg {
				t.Errorf("%s gzip=%v: %d %q, want %d %q", url, gz, rec.Code, body, want.code, want.msg)
			}
		}
	}

	// A quarter that is listed but cannot be loaded fails the assembly:
	// 500 on both routes. The failed load quarantines the file, so each
	// route gets a store of its own.
	for url, msg := range map[string]string{
		"/api/drift/2014Q1/2014Q2":        "drift report unavailable",
		"/api/timeline/aspirin+warfarin/": "timeline unavailable",
	} {
		dir := tempStoreDir(t, 3)
		flipByte(t, filepath.Join(dir, "2014Q2"+store.Ext))
		h, _ := storeHandler(t, dir)
		rec := getMux(t, h, url)
		if body := strings.TrimSpace(rec.Body.String()); rec.Code != http.StatusInternalServerError || body != msg {
			t.Errorf("%s over a corrupt quarter: %d %q, want 500 %q", url, rec.Code, body, msg)
		}
	}
}

// TestTrendMemoFollowsAssembly: after a quarter is published and
// listed, and after a stored quarter is rewritten, the next drift and
// timeline answers come from the new assembly and the memo keeps no
// entry of the old one.
func TestTrendMemoFollowsAssembly(t *testing.T) {
	dir := tempStoreDir(t, 3)
	h, d := storeHandler(t, dir)
	checkTrendRoutes(t, h, d, "before")

	for _, step := range []struct {
		name, label string
		a           *core.Analysis
	}{
		{"publish", "2014Q4", pairAnalysis(t, "ASPIRIN", "WARFARIN", "Haemorrhage", 30)},
		{"rewrite", "2014Q1", pairAnalysis(t, "IBUPROFEN", "LITHIUM", "Renal failure", 12)},
	} {
		if err := store.WriteFile(filepath.Join(dir, step.label+store.Ext), step.label, step.a); err != nil {
			t.Fatal(err)
		}
		if rec := getMux(t, h, "/api/quarters"); rec.Code != http.StatusOK {
			t.Fatalf("%s: /api/quarters = %d", step.name, rec.Code)
		}
		// One request of each route, then the memo must hold exactly
		// what those two requests filled.
		last := d.ss.reg.Quarters()[len(d.ss.reg.Quarters())-2:]
		if rec := getMux(t, h, "/api/drift/"+last[0]+"/"+last[1]); rec.Code != http.StatusOK {
			t.Fatalf("%s: drift = %d", step.name, rec.Code)
		}
		if rec := getMux(t, h, "/api/timeline/aspirin+warfarin"); rec.Code != http.StatusOK {
			t.Fatalf("%s: timeline = %d", step.name, rec.Code)
		}
		keys, current := memoKeys(t, d)
		want := []memoKey{{route: "drift", a: last[0], b: last[1]}, {route: "timeline", a: "ASPIRIN+WARFARIN"}}
		slices.SortFunc(keys, func(x, y memoKey) int { return strings.Compare(x.route, y.route) })
		if !current || !slices.Equal(keys, want) {
			t.Errorf("%s: memo holds %v (current assembly %v), want %v", step.name, keys, current, want)
		}
		checkTrendRoutes(t, h, d, step.name)
	}

	// The rewritten quarter no longer signals the pair; the published
	// one does, with the new support.
	var tl struct {
		Points []struct {
			Quarter string `json:"quarter"`
			Rank    int    `json:"rank"`
			Support int    `json:"support"`
		} `json:"points"`
	}
	if err := json.Unmarshal(getMux(t, h, "/api/timeline/aspirin+warfarin").Body.Bytes(), &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Points) != 4 || tl.Points[0].Rank != 0 || tl.Points[3].Support != 30 {
		t.Errorf("timeline after publish and rewrite = %+v", tl.Points)
	}
}

// TestDriftFindingRecordedOnce: a churn finding reaches the audit log
// once, however often the drift is asked for and whichever encoding
// the client takes. A memoised answer still records the report: once
// the event's dedup key is forgotten, the next request records it
// again, as a recomputation would.
func TestDriftFindingRecordedOnce(t *testing.T) {
	dir := tempStoreDir(t, 1)
	other := pairAnalysis(t, "IBUPROFEN", "LITHIUM", "Renal failure", 12)
	if err := store.WriteFile(filepath.Join(dir, "2014Q2"+store.Ext), "2014Q2", other); err != nil {
		t.Fatal(err)
	}
	h, d := storeHandler(t, dir)
	const scope = "2014Q1->2014Q2"
	drift := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if rec := serveGzip(h, "/api/drift/2014Q1/2014Q2", i%2 == 1); rec.Code != http.StatusOK {
				t.Fatalf("request %d: %d", i, rec.Code)
			}
		}
	}
	churnEvents := func() []audit.Event {
		var out []audit.Event
		for _, e := range d.auditor.Log.Recent(0) {
			if e.Rule == audit.RuleChurn && e.Scope == scope {
				out = append(out, e)
			}
		}
		return out
	}
	drift(6)
	events := churnEvents()
	if len(events) != 1 {
		t.Fatalf("%d %s events for %s, want 1", len(events), audit.RuleChurn, scope)
	}
	d.auditor.ForgetEvent("drift/" + scope + "/" + audit.RuleChurn + "/" + string(events[0].Severity))
	drift(3)
	if n := len(churnEvents()); n != 2 {
		t.Errorf("%d %s events after the key was forgotten, want 2", n, audit.RuleChurn)
	}
}

// TestTrendRoutesDuringPublish runs drift and timeline requests from
// several goroutines while quarters are published and listed; run it
// under -race. Every answer is a 200, and once the publishing stops the
// memo follows the final assembly.
func TestTrendRoutesDuringPublish(t *testing.T) {
	dir := tempStoreDir(t, 2)
	h, d := storeHandler(t, dir)
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 64) // the first 64 failures; later ones are dropped
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				url := "/api/timeline/aspirin+warfarin"
				if (g+i)%2 == 0 {
					url = "/api/drift/2014Q1/2014Q2"
				}
				if rec := serveGzip(h, url, i%3 == 0); rec.Code != http.StatusOK {
					select {
					case errs <- fmt.Sprintf("%s: %d %s", url, rec.Code, rec.Body.String()):
					default:
					}
				}
			}
		}(g)
	}
	for q := 3; q <= 4; q++ {
		label := fmt.Sprintf("2014Q%d", q)
		if err := d.ss.reg.Save(label, pairAnalysis(t, "ASPIRIN", "WARFARIN", "Haemorrhage", 8+4*q)); err != nil {
			t.Error(err)
		}
		getMux(t, h, "/api/quarters")
	}
	close(done)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	checkTrendRoutes(t, h, d, "after publishing")
	if _, current := memoKeys(t, d); !current {
		t.Error("memo does not hold the final assembly")
	}
}

// TestTrendMemoKeepsSupersededFillsOut: a body computed against an
// assembly the registry has since replaced is dropped, and never
// replaces the entries of the current one.
func TestTrendMemoKeepsSupersededFillsOut(t *testing.T) {
	old, cur := &trend.Analysis{}, &trend.Analysis{}
	latest := old
	m := &trendMemo{latest: func(ta *trend.Analysis) bool { return ta == latest }}
	k := memoKey{route: "timeline", a: "A+B"}
	m.put(old, k, memoEntry{body: obs.Encoded{Plain: []byte("old")}})
	if e, ok := m.get(old, k); !ok || string(e.body.Plain) != "old" {
		t.Fatalf("fill of the latest assembly not kept: %q %v", e.body.Plain, ok)
	}
	latest = cur
	m.put(cur, k, memoEntry{body: obs.Encoded{Plain: []byte("cur")}})
	m.put(old, k, memoEntry{body: obs.Encoded{Plain: []byte("late")}})
	m.put(old, memoKey{route: "drift", a: "x", b: "y"}, memoEntry{})
	if e, ok := m.get(cur, k); !ok || string(e.body.Plain) != "cur" {
		t.Errorf("current entry = %q %v, want cur", e.body.Plain, ok)
	}
	if _, ok := m.get(old, k); ok {
		t.Error("superseded assembly still reads entries")
	}
	if m.ta != cur || len(m.entries) != 1 {
		t.Errorf("memo holds %d entries of %p, want 1 of the current assembly", len(m.entries), m.ta)
	}
}
