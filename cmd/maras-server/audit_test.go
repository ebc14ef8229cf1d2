package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/store"
)

func TestStoreModeQualityEndpoint(t *testing.T) {
	h, _ := storeHandler(t, tempStoreDir(t, 3))
	rec := getMux(t, h, "/api/quality/2014Q2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var q audit.QualityReport
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if q.Label != "2014Q2" || q.Reports == 0 || q.Signals == 0 {
		t.Errorf("quality payload = %+v", q)
	}
	if q.Verdict == "" {
		t.Error("quality served without a verdict")
	}

	if rec := getMux(t, h, "/api/quality/2099Q1"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown quarter: status = %d", rec.Code)
	}
	if rec := getMux(t, h, "/api/quality/"); rec.Code != http.StatusBadRequest {
		t.Errorf("empty label: status = %d", rec.Code)
	}
}

func TestStoreModeDriftEndpoint(t *testing.T) {
	h, _ := storeHandler(t, tempStoreDir(t, 3))
	rec := getMux(t, h, "/api/drift/2014Q1/2014Q3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var d audit.DriftReport
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.From != "2014Q1" || d.To != "2014Q3" {
		t.Errorf("pair = %s->%s", d.From, d.To)
	}
	if d.FromSignals == 0 || d.ToSignals == 0 || len(d.Deltas) == 0 {
		t.Errorf("empty drift payload: %+v", d)
	}
	if d.Verdict == "" {
		t.Error("drift served without a verdict")
	}

	for url, want := range map[string]int{
		"/api/drift/2014Q1":        http.StatusBadRequest, // missing /to
		"/api/drift/2014Q1/2014Q1": http.StatusBadRequest, // identical
		"/api/drift/2014Q1/2099Q9": http.StatusNotFound,
		"/api/drift/2099Q9/2014Q1": http.StatusNotFound,
	} {
		if rec := getMux(t, h, url); rec.Code != want {
			t.Errorf("%s: status = %d, want %d", url, rec.Code, want)
		}
	}
}

func TestStoreModeQuartersPage(t *testing.T) {
	h, _ := storeHandler(t, tempStoreDir(t, 3))
	rec := getMux(t, h, "/quarters")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"2014Q1", "2014Q2", "2014Q3", "Churn vs prev", "/debug/audit"} {
		if !strings.Contains(body, want) {
			t.Errorf("quarters page missing %q", want)
		}
	}
	// The first row has no previous quarter: exactly one em-dash drift
	// cell; the other two rows carry drift verdicts.
	if got := strings.Count(body, "&mdash;"); got != 1 {
		t.Errorf("dash-only drift cells = %d, want 1\n%s", got, body)
	}
}

// tempStoreDirWithSpike builds a clean 2-quarter store plus a third
// quarter where most reports are empty transactions (drugs but no
// reactions), so cleaning drops them and the drop rate jumps past the
// warn threshold.
func tempStoreDirWithSpike(t *testing.T) string {
	t.Helper()
	dir := tempStoreDir(t, 2)
	var reports []faers.Report
	id := 0
	add := func(drugs, reacs []string) {
		id++
		reports = append(reports, faers.Report{
			PrimaryID: fmt.Sprintf("%d", 9000+id), CaseID: fmt.Sprintf("s%d", id),
			ReportCode: "EXP", Drugs: drugs, Reactions: reacs,
		})
	}
	for i := 0; i < 12; i++ {
		add([]string{"ASPIRIN", "WARFARIN"}, []string{"Haemorrhage"})
	}
	for i := 0; i < 10; i++ {
		add([]string{"ASPIRIN"}, []string{"Nausea"})
	}
	// The spike: ~70% of the quarter arrives without reactions.
	for i := 0; i < 55; i++ {
		add([]string{"IBUPROFEN"}, nil)
	}
	opts := core.NewOptions()
	opts.MinSupport = 3
	a, err := core.Run(reports, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteFile(filepath.Join(dir, "2014Q3"+store.Ext), "2014Q3", a); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDropRateSpikeReachesDebugAuditAndMetrics is the acceptance
// check: a quarter whose ingest threw most reports away must produce a
// warn event visible on /debug/audit and counted on
// maras_audit_events_total in /metrics.
func TestDropRateSpikeReachesDebugAuditAndMetrics(t *testing.T) {
	h, _ := storeHandler(t, tempStoreDirWithSpike(t))

	if rec := getMux(t, h, "/api/quality/2014Q3"); rec.Code != http.StatusOK {
		t.Fatalf("quality status = %d", rec.Code)
	} else {
		var q audit.QualityReport
		if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
			t.Fatal(err)
		}
		if q.DropRate < 0.6 {
			t.Fatalf("fixture drop rate = %.2f, want >= 0.6", q.DropRate)
		}
		if q.Verdict != audit.SevWarn && q.Verdict != audit.SevFail {
			t.Fatalf("verdict = %s, findings %+v", q.Verdict, q.Findings)
		}
	}

	rec := getMux(t, h, "/debug/audit")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/audit status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, audit.RuleDropRate) || !strings.Contains(body, "2014Q3") {
		t.Errorf("/debug/audit missing the drop-rate event:\n%s", body)
	}
	if !strings.Contains(body, "warn") {
		t.Errorf("/debug/audit shows no warn event:\n%s", body)
	}

	mrec := getMux(t, h, "/metrics")
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", mrec.Code)
	}
	if !strings.Contains(mrec.Body.String(), "maras_audit_events_total") {
		t.Error("/metrics missing maras_audit_events_total")
	}
}

func TestStoreModeDebugAuditJSONAndSweep(t *testing.T) {
	h, d := storeHandler(t, tempStoreDirWithSpike(t))

	// The sweep is what main runs in the background after readiness:
	// it must populate the event log without any API traffic.
	if n := d.ss.auditSweep(context.Background()); n != 3 {
		t.Fatalf("sweep audited %d quarters, want 3", n)
	}
	if d.auditor.Log.Stats().Total == 0 {
		t.Fatal("sweep recorded no events over the spiked store")
	}

	rec := getMux(t, h, "/debug/audit?format=json")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out struct {
		Stats  audit.LogStats `json:"stats"`
		Events []audit.Event  `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Stats.Total == 0 || len(out.Events) == 0 {
		t.Errorf("empty audit dump: %+v", out.Stats)
	}
}

// TestMiningModeDebugAudit: the mining server audits its quarter
// through the same registry sweep as store mode, and serves the
// timeline at /debug/audit and the report at /api/quality/{label}.
func TestMiningModeDebugAudit(t *testing.T) {
	h, d := testHandler(t)
	if n := d.ss.auditSweep(context.Background()); n != 1 {
		t.Fatalf("sweep audited %d quarters, want 1", n)
	}
	if rec := getMux(t, h, "/debug/audit"); rec.Code != http.StatusOK {
		t.Errorf("/debug/audit = %d, want 200", rec.Code)
	}
	rec := getMux(t, h, "/api/quality/2014Q1")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"label":"2014Q1"`) {
		t.Errorf("/api/quality/2014Q1 = %d %s", rec.Code, rec.Body.String())
	}
}
