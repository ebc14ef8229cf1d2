package main

import (
	"fmt"
	"net/http"
	"testing"

	"maras/internal/audit"
	"maras/internal/store"
)

// A drift event marks a quarter for a full re-route; a watchlist
// created afterwards gets its alert when the quarter next comes back
// into the LRU, also when its retained copy is gone and the load
// decodes the file again. A later clean re-decode evaluates nothing
// and fires nothing more.
func TestDirtyQuarterRedecodeDeliversAlerts(t *testing.T) {
	// One quarter more than the last-good cache holds, so loading every
	// other quarter pushes 2014Q1 out of both caches.
	n := store.DefaultStaleCap + 1
	h, d := watchStoreHandler(t, tempStoreDir(t, n), "")
	load := func(label string) {
		t.Helper()
		if rec := getMux(t, h, "/q/"+label+"/api/signals"); rec.Code != http.StatusOK {
			t.Fatalf("load %s = %d", label, rec.Code)
		}
	}
	promotions := func() int64 { return d.metrics.Counter("maras_store_promotions_total", "").Value() }
	decodes := func() int64 {
		return d.metrics.Histogram("maras_store_snapshot_load_seconds", "", nil).Count()
	}
	// redecodeQ1 loads every other quarter, then 2014Q1, which must be
	// a decode and not a promotion.
	redecodeQ1 := func() {
		t.Helper()
		for i := 2; i <= n; i++ {
			load(fmt.Sprintf("2014Q%d", i))
		}
		p, dec := promotions(), decodes()
		load("2014Q1")
		if promotions() != p || decodes() != dec+1 {
			t.Fatalf("2014Q1 reload: promotions %d -> %d, decodes %d -> %d; want one decode",
				p, promotions(), dec, decodes())
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
		Scope: fmt.Sprintf("2014Q%d->2014Q1", n), Message: "churned"})
	if rec := postJSON(t, h, "/api/watchlists",
		`{"user":"alice","drugs":["aspirin"]}`); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d", rec.Code)
	}
	redecodeQ1()
	if n := q1Alerts(); n != 1 {
		t.Fatalf("2014Q1 alerts after the dirty re-decode = %d, want 1", n)
	}

	evals := d.ws.ev.Stats().Evaluations
	redecodeQ1()
	if n := q1Alerts(); n != 1 {
		t.Errorf("2014Q1 alerts after a clean re-decode = %d, want still 1", n)
	}
	if got := d.ws.ev.Stats().Evaluations; got != evals {
		t.Errorf("a clean re-decode ran %d watch evaluations, want none", got-evals)
	}
}
