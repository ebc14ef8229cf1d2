package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/obs"
	"maras/internal/store"
)

// pairAnalysis mines a tiny quarter whose one strong interaction is
// drugA+drugB => reaction in pairReports reports, over single-drug
// background.
func pairAnalysis(t *testing.T, drugA, drugB, reaction string, pairReports int) *core.Analysis {
	t.Helper()
	var reports []faers.Report
	id := 0
	add := func(drugs, reacs []string) {
		id++
		reports = append(reports, faers.Report{
			PrimaryID: fmt.Sprintf("%d", 1000+id), CaseID: fmt.Sprintf("c%d", id),
			ReportCode: "EXP", Drugs: drugs, Reactions: reacs,
		})
	}
	for i := 0; i < pairReports; i++ {
		add([]string{drugA, drugB}, []string{reaction})
	}
	for i := 0; i < 20; i++ {
		add([]string{drugA}, []string{"Nausea"})
		add([]string{drugB}, []string{"Dizziness"})
	}
	opts := core.NewOptions()
	opts.MinSupport = 3
	a, err := core.Run(reports, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// tempStoreDir mines n tiny quarters (2014Q1..) and persists them as
// snapshots, returning the store directory. Pair support ramps with
// the quarter index so timelines are non-trivial.
func tempStoreDir(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	for qi := 0; qi < n; qi++ {
		a := pairAnalysis(t, "ASPIRIN", "WARFARIN", "Haemorrhage", 8+4*qi)
		label := fmt.Sprintf("2014Q%d", qi+1)
		if err := store.WriteFile(filepath.Join(dir, label+store.Ext), label, a); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// storeHandler builds the store-mode server over dir through newTestDeps.
func storeHandler(t *testing.T, dir string, args ...string) (http.Handler, *deps) {
	t.Helper()
	d := newTestDeps(t, append([]string{"-store", dir}, args...)...)
	return d.handler, d
}

func TestStoreModeQuartersEndpoint(t *testing.T) {
	h, _ := storeHandler(t, tempStoreDir(t, 3))
	rec := getMux(t, h, "/api/quarters")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out struct {
		Default  string   `json:"default"`
		Quarters []string `json:"quarters"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Default != "2014Q3" || len(out.Quarters) != 3 {
		t.Errorf("quarters payload = %+v", out)
	}
}

// TestStoreModeWarmSignalsZeroMining is the acceptance check: serving
// /api/signals from the store must never invoke the miner — a serving
// process records no pipeline stage at all.
func TestStoreModeWarmSignalsZeroMining(t *testing.T) {
	h, d := storeHandler(t, tempStoreDir(t, 2))
	for i := 0; i < 3; i++ {
		rec := getMux(t, h, "/api/signals")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, rec.Code)
		}
		var out []struct {
			Rank  int      `json:"rank"`
			Drugs []string `json:"drugs"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		if len(out) == 0 || out[0].Rank != 1 {
			t.Fatalf("request %d: payload %+v", i, out)
		}
	}
	for _, r := range d.tracer.Records() {
		if r.Name == core.StageMine {
			t.Fatal("store mode ran the miner")
		}
		t.Errorf("store mode recorded stage %q", r.Name)
	}
	// One cold load for the default quarter; the two warm requests
	// decode nothing.
	if n := snapshotDecodes(d); n != 1 {
		t.Errorf("snapshot decodes = %d, want 1 (warm requests must not re-read)", n)
	}
}

// snapshotDecodes is how many snapshot files d's registry decoded: the
// count of its load-latency histogram, which promotions do not observe.
func snapshotDecodes(d *deps) int64 {
	return d.metrics.Histogram("maras_store_snapshot_load_seconds", "", nil).Count()
}

// TestStoreModeDecodesKeepNoStageRecords: cold decodes are observed by
// the load histogram, the snapshot_decode span and the store_load wide
// event; none of them leaves a stage record on the process tracer,
// which would otherwise grow for the life of the server.
func TestStoreModeDecodesKeepNoStageRecords(t *testing.T) {
	n := store.DefaultMaxOpen + 2
	h, d := storeHandler(t, tempStoreDir(t, n))
	for q := 1; q <= n; q++ {
		if rec := getMux(t, h, fmt.Sprintf("/q/2014Q%d/api/signals", q)); rec.Code != http.StatusOK {
			t.Fatalf("2014Q%d = %d", q, rec.Code)
		}
	}
	if got := snapshotDecodes(d); got != int64(n) {
		t.Fatalf("snapshot decodes = %d, want %d", got, n)
	}
	if recs := d.tracer.Records(); len(recs) != 0 {
		t.Errorf("%d cold decodes left %d stage records: %+v", n, len(recs), recs)
	}
}

func TestStoreModeDefaultQuarterUI(t *testing.T) {
	h, _ := storeHandler(t, tempStoreDir(t, 2))
	rec := getMux(t, h, "/")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	// The default quarter is the latest on disk.
	for _, want := range []string{"MARAS", "2014Q2", "/signal/1"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}
	// Drill-down routes work against the snapshot (no txdb in memory).
	if rec := getMux(t, h, "/signal/1"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "ASPIRIN") {
		t.Errorf("/signal/1: status %d", rec.Code)
	}
	if rec := getMux(t, h, "/glyph/1"); rec.Code != http.StatusOK ||
		!strings.HasPrefix(rec.Body.String(), "<svg") {
		t.Errorf("/glyph/1: status %d", rec.Code)
	}
}

func TestStoreModeQuarterScopedRoutes(t *testing.T) {
	h, _ := storeHandler(t, tempStoreDir(t, 3))
	rec := getMux(t, h, "/q/2014Q1/api/signals")
	if rec.Code != http.StatusOK {
		t.Fatalf("/q/2014Q1/api/signals status = %d", rec.Code)
	}
	var q1 []struct {
		Support int `json:"support"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &q1); err != nil {
		t.Fatal(err)
	}
	rec3 := getMux(t, h, "/q/2014Q3/api/signals")
	var q3 []struct {
		Support int `json:"support"`
	}
	if err := json.Unmarshal(rec3.Body.Bytes(), &q3); err != nil {
		t.Fatal(err)
	}
	// The fixture ramps pair support, so the quarters must differ.
	if len(q1) == 0 || len(q3) == 0 || q1[0].Support >= q3[0].Support {
		t.Errorf("quarter scoping broken: q1 %+v vs q3 %+v", q1, q3)
	}
	if rec := getMux(t, h, "/q/2014Q1/signal/1"); rec.Code != http.StatusOK {
		t.Errorf("/q/2014Q1/signal/1 status = %d", rec.Code)
	}
	if rec := getMux(t, h, "/q/2019Q9/api/signals"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown quarter status = %d, want 404", rec.Code)
	}
}

func TestStoreModeTimeline(t *testing.T) {
	h, _ := storeHandler(t, tempStoreDir(t, 3))
	// Lower-case, reversed order: the key is canonicalized server-side.
	rec := getMux(t, h, "/api/timeline/warfarin+aspirin")
	if rec.Code != http.StatusOK {
		t.Fatalf("timeline status = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Key    string `json:"key"`
		Class  string `json:"class"`
		Points []struct {
			Quarter string `json:"quarter"`
			Rank    int    `json:"rank"`
			Support int    `json:"support"`
		} `json:"points"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Key != "ASPIRIN+WARFARIN" || len(out.Points) != 3 {
		t.Fatalf("timeline payload = %+v", out)
	}
	if out.Class != "persistent" {
		t.Errorf("class = %q, want persistent", out.Class)
	}
	for i := 1; i < len(out.Points); i++ {
		if out.Points[i].Support <= out.Points[i-1].Support {
			t.Errorf("support not ramping: %+v", out.Points)
		}
	}
	if rec := getMux(t, h, "/api/timeline/NOPE+NADA"); rec.Code != http.StatusNotFound {
		t.Errorf("absent key status = %d, want 404", rec.Code)
	}
	if rec := getMux(t, h, "/api/timeline/"); rec.Code != http.StatusBadRequest {
		t.Errorf("empty key status = %d, want 400", rec.Code)
	}
}

func TestStoreModeMetricsExposeStoreSeries(t *testing.T) {
	h, d := storeHandler(t, tempStoreDir(t, 2))
	getMux(t, h, "/api/signals") // cold load
	getMux(t, h, "/api/signals") // warm: an LRU hit
	// A direct warm registry load (what a cross-quarter route, e.g. the
	// timeline, performs) registers as a cache hit too.
	if _, err := d.ss.reg.Load(d.ss.reg.Latest()); err != nil {
		t.Fatal(err)
	}
	rec := getMux(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"maras_store_snapshot_load_seconds",
		"maras_store_open_quarters 1",
		"maras_store_cache_misses_total 1",
		"maras_store_cache_hits_total 2",
		"maras_store_snapshot_bytes_read_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestStoreModeHealthz(t *testing.T) {
	h, d := storeHandler(t, tempStoreDir(t, 3))
	rec := getMux(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz status = %d", rec.Code)
	}
	var body struct {
		Status   string `json:"status"`
		Mode     string `json:"mode"`
		Quarters int    `json:"quarters"`
		Default  string `json:"default"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Mode != "store" || body.Quarters != 3 ||
		body.Default != d.ss.reg.Latest() {
		t.Errorf("healthz = %+v", body)
	}
}

func TestStoreModeEmptyStore(t *testing.T) {
	h, _ := storeHandler(t, t.TempDir())
	if rec := getMux(t, h, "/"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("empty store index status = %d, want 503", rec.Code)
	}
	rec := getMux(t, h, "/api/quarters")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"quarters":[]`+"") {
		// json.Marshal of a nil slice yields null; accept either form.
		if !strings.Contains(rec.Body.String(), `"quarters":null`) {
			t.Errorf("empty store quarters = %d %s", rec.Code, rec.Body.String())
		}
	}
}

// TestStoreModeTraceAcceptance is the PR's acceptance scenario: a
// store-backed request to /q/{label}/... yields a journal trace whose
// root HTTP span has registry child spans, with a cache hit vs a cold
// decode distinguishable by span attributes.
func TestStoreModeTraceAcceptance(t *testing.T) {
	h, d := storeHandler(t, tempStoreDir(t, 2), "-trace-journal", "16", "-trace-slow", "1h")
	journal := d.journal

	// Cold: /q/2014Q1 loads + decodes the snapshot.
	if rec := getMux(t, h, "/q/2014Q1/api/signals"); rec.Code != http.StatusOK {
		t.Fatalf("/q/2014Q1/api/signals = %d", rec.Code)
	}
	// The timeline walks every quarter through LoadContext — 2014Q1 is
	// an LRU hit, 2014Q2 a miss with a decode.
	if rec := getMux(t, h, "/api/timeline/warfarin+aspirin"); rec.Code != http.StatusOK {
		t.Fatalf("/api/timeline = %d: %s", rec.Code, rec.Body.String())
	}

	recent := journal.Recent(0) // newest first: timeline, then /q/
	if len(recent) != 2 {
		t.Fatalf("journal traces = %d, want 2", len(recent))
	}

	cold := recent[1]
	if cold.Name != "GET /q/" {
		t.Fatalf("cold trace root = %q", cold.Name)
	}
	spansBy := func(tr obs.TraceRecord, name string) []obs.SpanRecord {
		var out []obs.SpanRecord
		for _, s := range tr.Spans {
			if s.Name == name {
				out = append(out, s)
			}
		}
		return out
	}
	parentOf := func(tr obs.TraceRecord, id int) (obs.SpanRecord, bool) {
		for _, s := range tr.Spans {
			if s.ID == id {
				return s, true
			}
		}
		return obs.SpanRecord{}, false
	}

	loads := spansBy(cold, store.SpanLoad)
	if len(loads) != 1 || loads[0].Attrs["cache"] != "lru_miss" || loads[0].Attrs["quarter"] != "2014Q1" {
		t.Fatalf("cold store_load spans = %+v", loads)
	}
	decodes := spansBy(cold, store.SpanDecode)
	if len(decodes) != 1 || decodes[0].Parent != loads[0].ID {
		t.Fatalf("cold snapshot_decode spans = %+v", decodes)
	}
	// The load hangs directly off the request's HTTP root span.
	if root, ok := parentOf(cold, loads[0].Parent); !ok || root.Parent != -1 {
		t.Fatalf("store_load not under the HTTP root: %+v", root)
	}

	warm := recent[0]
	if warm.Name != "GET /api/timeline/" {
		t.Fatalf("timeline trace root = %q", warm.Name)
	}
	byQuarter := map[string]obs.SpanRecord{}
	for _, s := range spansBy(warm, store.SpanLoad) {
		byQuarter[s.Attrs["quarter"]] = s
	}
	if byQuarter["2014Q1"].Attrs["cache"] != "lru_hit" {
		t.Errorf("warm quarter load = %+v, want lru_hit", byQuarter["2014Q1"].Attrs)
	}
	if byQuarter["2014Q2"].Attrs["cache"] != "lru_miss" {
		t.Errorf("cold quarter load = %+v, want lru_miss", byQuarter["2014Q2"].Attrs)
	}
	if len(spansBy(warm, store.SpanDecode)) != 1 {
		t.Errorf("timeline decodes = %d, want 1 (only 2014Q2)", len(spansBy(warm, store.SpanDecode)))
	}

	// The warm path: a repeated /q/ request is one LRU hit and no
	// decode.
	getMux(t, h, "/q/2014Q1/api/signals")
	rerun := journal.Recent(1)[0]
	if loads := spansBy(rerun, store.SpanLoad); len(loads) != 1 || loads[0].Attrs["cache"] != "lru_hit" {
		t.Errorf("warm request store_load spans = %+v, want one lru_hit", loads)
	}
	if n := len(spansBy(rerun, store.SpanDecode)); n != 0 {
		t.Errorf("warm request decoded %d times", n)
	}

	// All of it visible at /debug/traces.
	body := getMux(t, h, "/debug/traces").Body.String()
	for _, want := range []string{"GET /q/", "store_load", "cache=lru_miss", "cache=lru_hit", "snapshot_decode"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/traces missing %q", want)
		}
	}
}

// TestStoreModeReadyz: store mode mounts /readyz too.
func TestStoreModeReadyz(t *testing.T) {
	h, _ := storeHandler(t, tempStoreDir(t, 1))
	rec := getMux(t, h, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 (storeHandler marks ready)", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"mode":"store"`) {
		t.Errorf("readyz detail missing store mode: %s", rec.Body.String())
	}
}

// signalDrugs returns the drugs of the top signal at url.
func signalDrugs(t *testing.T, h http.Handler, url string) string {
	t.Helper()
	rec := getMux(t, h, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s = %d", url, rec.Code)
	}
	var out []struct {
		Drugs []string `json:"drugs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("%s: no signals", url)
	}
	return strings.Join(out[0].Drugs, "+")
}

// TestRepublishedQuarterServedFresh: a quarter re-published while the
// server holds it — by Save, or by a replica install over an existing
// label — is served from the new bytes on the very next request.
func TestRepublishedQuarterServedFresh(t *testing.T) {
	publish := map[string]func(*store.Registry, string, *core.Analysis) error{
		"save": (*store.Registry).Save,
		"install_bytes": func(reg *store.Registry, label string, a *core.Analysis) error {
			var buf bytes.Buffer
			if err := store.Write(&buf, label, a); err != nil {
				return err
			}
			return reg.InstallBytes(label, buf.Bytes())
		},
	}
	for name, republish := range publish {
		t.Run(name, func(t *testing.T) {
			h, d := storeHandler(t, tempStoreDir(t, 2))
			const url = "/q/2014Q1/api/signals"
			if got := signalDrugs(t, h, url); got != "ASPIRIN+WARFARIN" {
				t.Fatalf("before re-publish: top signal %s", got)
			}
			next := pairAnalysis(t, "IBUPROFEN", "LITHIUM", "Renal failure", 12)
			if err := republish(d.ss.reg, "2014Q1", next); err != nil {
				t.Fatal(err)
			}
			if got := signalDrugs(t, h, url); got != "IBUPROFEN+LITHIUM" {
				t.Errorf("after re-publish: top signal %s, want IBUPROFEN+LITHIUM", got)
			}
		})
	}
}

// TestQuarterRoutingKeepsLRURecency: quarter requests refresh the
// registry's LRU position, so a quarter requested between every other
// one is never the eviction victim. Six quarters, LRU of four: Q1,
// then Q2..Q5 with Q1 touched after each, decodes each of the five
// exactly once (Q2 is evicted, Q1 never).
func TestQuarterRoutingKeepsLRURecency(t *testing.T) {
	h, d := storeHandler(t, tempStoreDir(t, store.DefaultMaxOpen+2))
	get := func(q int) {
		t.Helper()
		url := fmt.Sprintf("/q/2014Q%d/api/signals", q)
		if rec := getMux(t, h, url); rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", url, rec.Code)
		}
	}
	get(1)
	for q := 2; q <= 5; q++ {
		get(q)
		get(1)
	}
	if loads := snapshotDecodes(d); loads != 5 {
		t.Errorf("snapshot decodes = %d, want 5 (the hot quarter must not be evicted)", loads)
	}
}

// TestExternallyRewrittenQuarterServedFresh: a resident quarter
// rewritten behind the server's back (maras-mine -snapshot-out over an
// existing label, store.WriteFile into the directory) is picked up by
// the next inventory poll: its signals and the cross-quarter timeline
// both come from the new bytes.
func TestExternallyRewrittenQuarterServedFresh(t *testing.T) {
	dir := tempStoreDir(t, 2)
	h, _ := storeHandler(t, dir)
	const url = "/q/2014Q1/api/signals"
	if got := signalDrugs(t, h, url); got != "ASPIRIN+WARFARIN" {
		t.Fatalf("before rewrite: top signal %s", got)
	}
	const timeline = "/api/timeline/ibuprofen+lithium"
	if rec := getMux(t, h, timeline); rec.Code != http.StatusNotFound {
		t.Fatalf("before rewrite: %s = %d, want 404", timeline, rec.Code)
	}

	next := pairAnalysis(t, "IBUPROFEN", "LITHIUM", "Renal failure", 12)
	if err := store.WriteFile(filepath.Join(dir, "2014Q1"+store.Ext), "2014Q1", next); err != nil {
		t.Fatal(err)
	}
	if rec := getMux(t, h, "/api/quarters"); rec.Code != http.StatusOK {
		t.Fatalf("/api/quarters = %d", rec.Code)
	}

	if got := signalDrugs(t, h, url); got != "IBUPROFEN+LITHIUM" {
		t.Errorf("after rewrite and poll: top signal %s, want IBUPROFEN+LITHIUM", got)
	}
	rec := getMux(t, h, timeline)
	if rec.Code != http.StatusOK {
		t.Fatalf("after rewrite and poll: %s = %d: %s", timeline, rec.Code, rec.Body.String())
	}
	var out struct {
		Points []struct {
			Quarter string `json:"quarter"`
			Support int    `json:"support"`
		} `json:"points"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != 2 || out.Points[0].Support != 12 || out.Points[1].Support != 0 {
		t.Errorf("timeline after rewrite = %+v, want support 12 in 2014Q1 only", out.Points)
	}
}
