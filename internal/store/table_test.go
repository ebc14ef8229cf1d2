package store

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"maras/internal/core"
	"maras/internal/obs"
	"maras/internal/resilience"
)

// forget keeps a quarter's copy as its stale fallback but clears the
// identity the copy was decoded from: the copy is never promoted, not
// even when the very same file comes back (an operator renaming a
// quarantined snapshot into place), and a later rescan does not forget
// the quarter again while its file is away.
func TestForgottenCopyIsNeverPromoted(t *testing.T) {
	t.Cleanup(resilience.DisableAll)
	reg, m, _, onLoads := promoteRegistry(t, tempStore(t, 2))
	first, _ := mustLoad(t, reg, "2014Q1")
	mustLoad(t, reg, "2014Q2") // 2014Q1 leaves the hot window; its copy stays

	// An injected decode fault quarantines the intact file.
	if err := resilience.Enable(resilience.FPDecode + "=error*1"); err != nil {
		t.Fatal(err)
	}
	if a, origin := mustLoad(t, reg, "2014Q1"); a != first || origin != OriginStale {
		t.Fatalf("quarantined quarter: retained copy %v, origin %v", a == first, origin)
	}
	resilience.DisableAll()
	before, err := reg.TrendAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	if after, err := reg.TrendAnalysis(); err != nil || after != before {
		t.Fatalf("a rescan with the quarantined file still away rebuilt the trend (err %v)", err)
	}

	path := reg.Path("2014Q1")
	if err := os.Rename(path+QuarantinedExt, path); err != nil {
		t.Fatal(err)
	}
	if err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	promotions, decodes := m.Promotions.Value(), m.LoadSeconds.Count()
	again, origin := mustLoad(t, reg, "2014Q1")
	if again == first || origin != OriginLocal {
		t.Fatalf("restored quarter: retained copy %v, origin %v; want a fresh decode", again == first, origin)
	}
	if m.Promotions.Value() != promotions || m.LoadSeconds.Count() != decodes+1 {
		t.Errorf("restored quarter: promotions %d -> %d, decodes %d -> %d; want one decode",
			promotions, m.Promotions.Value(), decodes, m.LoadSeconds.Count())
	}
	if n := onLoads(); n != 3 {
		t.Errorf("OnLoad calls = %d, want 3 (a forgotten quarter's bytes are new again)", n)
	}
}

// A replayable random schedule of loads, resilient loads, saves,
// rewrites behind the registry's back, rescans, trend assemblies and
// planted peer copies, with the quarter table's invariants checked
// after every step: the copies and the hot window stay within their
// bounds, every hot row holds a copy, the open-quarter gauge agrees
// with OpenCount, every LRU miss is one decode or one promotion, and
// no load answers with another quarter's analysis (nor with a peer's
// copy, nor with old bytes once the registry knows of new ones).
func TestTableScheduleInvariants(t *testing.T) {
	const quarters, versions = 4, 5
	// versions[q][v] is quarter q's content number v; every content's
	// report count names its quarter.
	var contents [quarters][versions]*core.Analysis
	owner := map[int]int{} // report count -> quarter
	for q := 0; q < quarters; q++ {
		for v := 0; v < versions; v++ {
			a := quarterAnalysis(t, 5+10*q+v)
			if _, dup := owner[a.Stats.Reports]; dup {
				t.Fatalf("fixture: report count %d is not unique", a.Stats.Reports)
			}
			owner[a.Stats.Reports] = q
			contents[q][v] = a
		}
	}
	label := func(q int) string { return fmt.Sprintf("2014Q%d", q+1) }

	configs := []struct {
		name    string
		maxOpen int
		res     *ResilienceOptions
		bound   int
	}{
		{"resilient", 2, &ResilienceOptions{StaleCap: 3}, 3},
		{"plain", 2, nil, 2},
		{"clamped", 3, &ResilienceOptions{StaleCap: 2}, 2},
	}
	for _, cfg := range configs {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				dir := t.TempDir()
				current := make([]int, quarters) // version on disk
				for q := 0; q < quarters; q++ {
					if err := WriteFile(filepath.Join(dir, label(q)+Ext), label(q), contents[q][0]); err != nil {
						t.Fatal(err)
					}
				}
				m := obs.NewStoreMetrics(obs.NewRegistry())
				reg, err := OpenRegistry(dir, RegistryOptions{MaxOpen: cfg.maxOpen, Metrics: m, Resilience: cfg.res})
				if err != nil {
					t.Fatal(err)
				}
				// known[q] says the registry has been told of quarter q's
				// current bytes (Save, or a rescan since the last
				// rewrite), so a load must answer with them.
				known := make([]bool, quarters)
				for q := range known {
					known[q] = true
				}
				planted := map[*core.Analysis]bool{}
				check := func(step string, q int, a *core.Analysis) {
					t.Helper()
					switch {
					case planted[a]:
						t.Fatalf("%s: %s answered with a planted peer copy", step, label(q))
					case owner[a.Stats.Reports] != q:
						t.Fatalf("%s: %s answered with %s's analysis", step, label(q), label(owner[a.Stats.Reports]))
					case known[q] && a.Stats.Reports != contents[q][current[q]].Stats.Reports:
						t.Fatalf("%s: %s answered with old bytes", step, label(q))
					}
				}
				for i := 0; i < 300; i++ {
					q := rng.Intn(quarters)
					var step string
					switch op := rng.Intn(10); {
					case op < 3:
						step = "load " + label(q)
						a, err := reg.Load(label(q))
						if err != nil {
							t.Fatalf("%s: %v", step, err)
						}
						check(step, q, a)
					case op < 6:
						step = "load_resilient " + label(q)
						a, origin, err := reg.LoadResilient(context.Background(), label(q))
						if err != nil || origin != OriginLocal {
							t.Fatalf("%s: origin %q, %v", step, origin, err)
						}
						check(step, q, a)
					case op == 6:
						step = "save " + label(q)
						current[q] = rng.Intn(versions)
						if err := reg.Save(label(q), contents[q][current[q]]); err != nil {
							t.Fatal(err)
						}
						known[q] = true
					case op == 7:
						step = "rewrite " + label(q)
						current[q] = rng.Intn(versions)
						if err := WriteFile(reg.Path(label(q)), label(q), contents[q][current[q]]); err != nil {
							t.Fatal(err)
						}
						known[q] = false
					case op == 8:
						if rng.Intn(2) == 0 {
							step = "refresh"
							if err := reg.Refresh(); err != nil {
								t.Fatal(err)
							}
							for q := range known {
								known[q] = true
							}
						} else {
							step = "trend"
							if _, err := reg.TrendAnalysis(); err != nil {
								t.Fatal(err)
							}
						}
					default:
						if cfg.res == nil {
							continue
						}
						step = "plant peer " + label(q)
						peer := quarterAnalysis(t, 5+10*q)
						owner[peer.Stats.Reports] = q
						planted[peer] = true
						plantPeerCopy(reg, label(q), peer, loadedID(reg, label(q)))
					}

					hot, held, bare := tableCounts(reg)
					switch {
					case held > cfg.bound:
						t.Fatalf("step %d (%s): %d copies held, bound %d", i, step, held, cfg.bound)
					case hot > cfg.maxOpen || hot > cfg.bound:
						t.Fatalf("step %d (%s): %d hot rows, MaxOpen %d, bound %d", i, step, hot, cfg.maxOpen, cfg.bound)
					case bare > 0:
						t.Fatalf("step %d (%s): %d hot rows hold no copy", i, step, bare)
					case int64(reg.OpenCount()) != m.OpenQuarters.Value():
						t.Fatalf("step %d (%s): OpenCount %d, gauge %d", i, step, reg.OpenCount(), m.OpenQuarters.Value())
					case m.LoadSeconds.Count()+m.Promotions.Value() != m.Misses.Value():
						t.Fatalf("step %d (%s): decodes %d + promotions %d != misses %d", i, step,
							m.LoadSeconds.Count(), m.Promotions.Value(), m.Misses.Value())
					}
				}
				// Only copies past the hot window can be promoted.
				if cfg.res != nil && cfg.bound > cfg.maxOpen && m.Promotions.Value() == 0 {
					t.Error("no promotions in the schedule")
				}
				if m.Evictions.Value() == 0 {
					t.Error("no evictions in the schedule")
				}
			})
		}
	}
}
