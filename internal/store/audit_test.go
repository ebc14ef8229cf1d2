package store

import (
	"context"
	"testing"

	"maras/internal/audit"
	"maras/internal/obs"
)

func TestRegistryQuality(t *testing.T) {
	dir := tempStore(t, 3)
	log := audit.NewLog(audit.LogOptions{})
	reg, err := OpenRegistry(dir, RegistryOptions{
		Auditor: &audit.Auditor{Log: log},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := reg.Quality("2014Q2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Label != "2014Q2" {
		t.Errorf("label = %q", q.Label)
	}
	if q.Reports == 0 || q.Signals == 0 {
		t.Errorf("empty metrics: %+v", q)
	}
	if q.Verdict == "" {
		t.Error("quality not evaluated (no verdict)")
	}
	// The fixture quarters are clean and similar — verdict ok.
	if q.Verdict != audit.SevOK {
		t.Errorf("verdict = %s, findings %+v", q.Verdict, q.Findings)
	}

	// The cached metric report must stay findings-free (the returned
	// report is a copy).
	cached := cachedQuality(reg)["2014Q2"]
	if cached == nil {
		t.Fatal("quality not cached after evaluation")
	}
	if cached.Findings != nil || cached.Verdict != "" {
		t.Errorf("cached metrics polluted by evaluation: %+v", cached)
	}

	if _, err := reg.Quality("2099Q1"); err == nil {
		t.Error("quality of absent quarter succeeded")
	}
}

func TestRegistryQualitySurvivesEviction(t *testing.T) {
	dir := tempStore(t, 3)
	reg, err := OpenRegistry(dir, RegistryOptions{MaxOpen: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Touch all three quarters; with MaxOpen 1 the analyses are
	// evicted, but the quality map must retain every label.
	for _, l := range reg.Quarters() {
		if _, err := reg.Quality(l); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.OpenCount(); got > 1 {
		t.Fatalf("open quarters = %d, want <= 1", got)
	}
	n := len(cachedQuality(reg))
	if n != 3 {
		t.Fatalf("quality cache held %d labels, want 3 (must survive LRU eviction)", n)
	}
}

func TestRegistryDrift(t *testing.T) {
	dir := tempStore(t, 3)
	reg, err := OpenRegistry(dir, RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := reg.Drift("2014Q1", "2014Q2")
	if err != nil {
		t.Fatal(err)
	}
	if d.From != "2014Q1" || d.To != "2014Q2" {
		t.Fatalf("pair = %s->%s", d.From, d.To)
	}
	if d.FromSignals == 0 || d.ToSignals == 0 {
		t.Fatalf("empty compared sets: %+v", d)
	}
	// The aspirin+warfarin signal persists across the fixture quarters.
	found := false
	for _, sd := range d.Deltas {
		if sd.Key == "ASPIRIN+WARFARIN" && sd.Status == audit.StatusPersisting {
			found = true
			if sd.SupportDelta <= 0 {
				t.Errorf("fixture support ramps up, delta = %d", sd.SupportDelta)
			}
		}
	}
	if !found {
		t.Errorf("ASPIRIN+WARFARIN not persisting in deltas: %+v", d.Deltas)
	}
	if d.Verdict == "" {
		t.Error("drift not evaluated")
	}

	if _, err := reg.Drift("2014Q1", "2099Q1"); err == nil {
		t.Error("drift with absent quarter succeeded")
	}
}

func TestRegistryTrendCacheReuseAndInvalidation(t *testing.T) {
	dir := tempStore(t, 2)
	reg, err := OpenRegistry(dir, RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ta1, err := reg.TrendAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	ta2, err := reg.TrendAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if ta1 != ta2 {
		t.Error("unchanged store re-assembled the trend analysis")
	}

	// Saving a new quarter invalidates the cache and the next assembly
	// covers it.
	if err := reg.Save("2014Q3", quarterAnalysis(t, 20)); err != nil {
		t.Fatal(err)
	}
	ta3, err := reg.TrendAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if ta3 == ta1 {
		t.Error("Save did not invalidate the trend cache")
	}
	if len(ta3.Quarters) != 3 {
		t.Errorf("rebuilt analysis covers %v", ta3.Quarters)
	}
}

func TestRegistryQualityAuditEvents(t *testing.T) {
	dir := tempStore(t, 3)
	reg, err := OpenRegistry(dir, RegistryOptions{
		// The fixture ramps report volume across quarters (the pair
		// support grows), so an absurdly tight volume band makes the
		// newest quarter warn against its trailing mean.
		Auditor: &audit.Auditor{
			Log:        audit.NewLog(audit.LogOptions{}),
			Thresholds: audit.Thresholds{VolumeSwing: 0.999},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := reg.Quality("2014Q3")
	if err != nil {
		t.Fatal(err)
	}
	if q.Verdict != audit.SevWarn {
		t.Fatalf("verdict = %s with VolumeSwing 0.999, findings %+v", q.Verdict, q.Findings)
	}
	// Re-evaluating must not duplicate the event.
	if _, err := reg.Quality("2014Q3"); err != nil {
		t.Fatal(err)
	}
	log := reg.auditor.Log
	if got := log.Stats().Total; got != 1 {
		t.Fatalf("events = %d, want 1 (deduplicated)", got)
	}
	ev := log.Recent(1)[0]
	if ev.Rule != audit.RuleVolume || ev.Scope != "2014Q3" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestRegistryAuditSpans(t *testing.T) {
	dir := tempStore(t, 2)
	reg, err := OpenRegistry(dir, RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("audit")
	ctx, root := tr.StartRoot(context.Background(), "test")
	if _, err := reg.QualityContext(ctx, "2014Q2"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.DriftContext(ctx, "2014Q1", "2014Q2"); err != nil {
		t.Fatal(err)
	}
	root.End()
	rec := tr.Snapshot()
	names := spanNames(rec)
	for _, want := range []string{SpanQuality, SpanDrift, SpanAssemble} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("trace missing span %q: %v", want, names)
		}
	}
}
