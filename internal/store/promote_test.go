package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/obs"
	"maras/internal/resilience"
)

// promoteRegistry opens a one-slot LRU over dir with resilience on, the
// fast retry/breaker settings of resilientRegistry, and an OnLoad hook
// that counts its calls.
func promoteRegistry(t *testing.T, dir string) (*Registry, *obs.StoreMetrics, *audit.Log, func() int) {
	t.Helper()
	m := obs.NewStoreMetrics(obs.NewRegistry())
	log := audit.NewLog(audit.LogOptions{})
	var mu sync.Mutex
	onLoads := 0
	reg, err := OpenRegistry(dir, RegistryOptions{
		MaxOpen: 1,
		Metrics: m,
		Auditor: &audit.Auditor{Log: log},
		OnLoad: func(context.Context, string, *core.Analysis) {
			mu.Lock()
			onLoads++
			mu.Unlock()
		},
		Resilience: &ResilienceOptions{
			Quarantine: true,
			Retry:      resilience.RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Budget: time.Second},
			Breaker:    resilience.BreakerConfig{FailureThreshold: 2, Cooldown: 50 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, m, log, func() int {
		mu.Lock()
		defer mu.Unlock()
		return onLoads
	}
}

func mustLoad(t *testing.T, reg *Registry, label string) (*core.Analysis, Origin) {
	t.Helper()
	a, origin, err := reg.LoadResilient(context.Background(), label)
	if err != nil {
		t.Fatalf("load %s: %v", label, err)
	}
	return a, origin
}

// An LRU miss on an unchanged file promotes the retained copy: the
// same analysis comes back, with no decode, no bytes read and no
// OnLoad call, and the promotion is counted.
func TestPromoteUnchangedQuarter(t *testing.T) {
	reg, m, _, onLoads := promoteRegistry(t, tempStore(t, 2))
	q1, _ := mustLoad(t, reg, "2014Q1")
	mustLoad(t, reg, "2014Q2") // evicts 2014Q1; its copy stays retained
	bytesRead := m.BytesRead.Value()

	again, origin := mustLoad(t, reg, "2014Q1")
	if again != q1 || origin != OriginLocal {
		t.Fatalf("reload: same copy %v, origin %v; want the retained copy served as local", again == q1, origin)
	}
	if got := m.Promotions.Value(); got != 1 {
		t.Errorf("promotions = %d, want 1", got)
	}
	if got := m.LoadSeconds.Count(); got != 2 {
		t.Errorf("decodes = %d, want 2 (a promotion is not a decode)", got)
	}
	if got := m.BytesRead.Value(); got != bytesRead {
		t.Errorf("bytes read grew by %d on a promotion", got-bytesRead)
	}
	if got := m.Misses.Value(); got != 3 {
		t.Errorf("misses = %d, want 3 (a promotion is still an LRU miss)", got)
	}
	if got := onLoads(); got != 2 {
		t.Errorf("OnLoad calls = %d, want 2 (once per file identity, never on a promotion)", got)
	}
	// The promoted quarter's quality report is published as on a decode.
	if q, err := reg.Quality("2014Q1"); err != nil || q.Label != "2014Q1" {
		t.Fatalf("quality after promotion: %+v, %v", q, err)
	}
}

// A promotion calls OnLoad, with the retained analysis, exactly when
// RegistryOptions.Dirty asks for the quarter again; a clean promotion
// calls nothing.
func TestPromotionOfDirtyQuarterCallsOnLoad(t *testing.T) {
	var mu sync.Mutex
	dirty := map[string]bool{}
	var loaded []*core.Analysis
	m := obs.NewStoreMetrics(obs.NewRegistry())
	reg, err := OpenRegistry(tempStore(t, 2), RegistryOptions{
		MaxOpen: 1,
		Metrics: m,
		OnLoad: func(_ context.Context, label string, a *core.Analysis) {
			mu.Lock()
			defer mu.Unlock()
			if label == "2014Q1" {
				loaded = append(loaded, a)
			}
			delete(dirty, label) // an evaluation clears the mark
		},
		Dirty: func(label string) bool {
			mu.Lock()
			defer mu.Unlock()
			return dirty[label]
		},
		Resilience: &ResilienceOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(loaded)
	}
	q1, _ := mustLoad(t, reg, "2014Q1")
	mustLoad(t, reg, "2014Q2")
	mustLoad(t, reg, "2014Q1") // clean promotion
	if got := calls(); got != 1 {
		t.Fatalf("OnLoad(2014Q1) calls = %d after a clean promotion, want 1", got)
	}

	mu.Lock()
	dirty["2014Q1"] = true
	mu.Unlock()
	mustLoad(t, reg, "2014Q2")
	again, _ := mustLoad(t, reg, "2014Q1") // dirty promotion
	if got := m.Promotions.Value(); got != 3 {
		t.Fatalf("promotions = %d, want 3", got)
	}
	if got := calls(); got != 2 || loaded[1] != q1 || again != q1 {
		t.Fatalf("dirty promotion: OnLoad calls %d, got the retained copy %v", got, got == 2 && loaded[1] == q1)
	}
	mustLoad(t, reg, "2014Q2")
	mustLoad(t, reg, "2014Q1") // the evaluation cleared the mark
	if got := calls(); got != 2 {
		t.Errorf("OnLoad(2014Q1) calls = %d after the mark was cleared, want 2", got)
	}
}

// Every way the file can change makes the next load decode the new
// bytes and never return the old copy: Save, InstallBytes, a WriteFile
// into the directory behind the registry's back, and an in-place
// rewrite of equal length that keeps the modification time, which only
// the CRC trailer tells apart.
func TestWritesDefeatPromotion(t *testing.T) {
	rewrite := func(t *testing.T, reg *Registry, _ *core.Analysis, data []byte) {
		t.Helper()
		path := reg.Path("2014Q1")
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != fi.Size() {
			t.Fatalf("fixture: rewrite is %d bytes, file %d; equal lengths needed", len(data), fi.Size())
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
			t.Fatal(err)
		}
	}
	publishers := map[string]func(t *testing.T, reg *Registry, a *core.Analysis, data []byte){
		"save": func(t *testing.T, reg *Registry, a *core.Analysis, _ []byte) {
			if err := reg.Save("2014Q1", a); err != nil {
				t.Fatal(err)
			}
		},
		"install_bytes": func(t *testing.T, reg *Registry, _ *core.Analysis, data []byte) {
			if err := reg.InstallBytes("2014Q1", data); err != nil {
				t.Fatal(err)
			}
		},
		"external_write_file": func(t *testing.T, reg *Registry, a *core.Analysis, _ []byte) {
			if err := WriteFile(reg.Path("2014Q1"), "2014Q1", a); err != nil {
				t.Fatal(err)
			}
		},
		"in_place_equal_length": rewrite,
	}
	for name, publish := range publishers {
		t.Run(name, func(t *testing.T) {
			reg, m, _, onLoads := promoteRegistry(t, tempStore(t, 2))
			old, _ := mustLoad(t, reg, "2014Q1")
			mustLoad(t, reg, "2014Q2")

			// The new quarter differs from the old one in one stats
			// field whose encoding keeps its length.
			next := quarterAnalysis(t, 8)
			next.Stats.Reports = old.Stats.Reports + 1
			var buf bytes.Buffer
			if err := write(&buf, "2014Q1", next, time.Now()); err != nil {
				t.Fatal(err)
			}
			publish(t, reg, next, buf.Bytes())

			got, origin := mustLoad(t, reg, "2014Q1")
			if got == old || got.Stats.Reports != next.Stats.Reports || origin != OriginLocal {
				t.Fatalf("after %s: old copy %v, reports %d (want %d), origin %v",
					name, got == old, got.Stats.Reports, next.Stats.Reports, origin)
			}
			if p := m.Promotions.Value(); p != 0 {
				t.Errorf("promotions = %d, want 0", p)
			}
			if d := m.LoadSeconds.Count(); d != 3 {
				t.Errorf("decodes = %d, want 3", d)
			}
			if n := onLoads(); n != 3 {
				t.Errorf("OnLoad calls = %d, want 3", n)
			}
			// The new copy is retained in turn: evicted again, it is
			// promoted, and it is still the new one.
			mustLoad(t, reg, "2014Q2")
			if again, _ := mustLoad(t, reg, "2014Q1"); again != got {
				t.Error("the new copy was not the one retained")
			}
			if p := m.Promotions.Value(); p != 2 {
				t.Errorf("promotions after the new copy's eviction = %d, want 2", p)
			}
		})
	}
}

// faultTrace drives one scripted fault episode against an evicted
// quarter that still has a retained copy and records what an operator
// would see: the origin of every load, the breaker state after it, the
// breaker transitions on the audit log, the retry and stale-serve
// counters, and whether the file was quarantined. The script and the
// expected traces were checked against the registry before promotion
// existed, so a promotion check placed before the failpoints would
// show up here as a changed trace.
func faultTrace(t *testing.T, spec string, steps int) ([]string, *obs.StoreMetrics) {
	t.Cleanup(resilience.DisableAll)
	reg, m, log, _ := promoteRegistry(t, tempStore(t, 2))
	mustLoad(t, reg, "2014Q1")
	mustLoad(t, reg, "2014Q2") // 2014Q1 evicted, retained

	var trace []string
	load := func() {
		_, origin, err := reg.LoadResilient(context.Background(), "2014Q1")
		state := "none"
		if st, ok := reg.BreakerStates()["2014Q1"]; ok {
			state = st.String()
		}
		trace = append(trace, fmt.Sprintf("origin=%s err=%v breaker=%s", origin, err != nil, state))
	}
	if err := resilience.Enable(spec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		load()
	}
	resilience.DisableAll()
	time.Sleep(60 * time.Millisecond) // past the breaker cooldown
	load()

	for _, e := range log.Recent(0) { // newest first
		switch {
		case e.Scope != "2014Q1":
		case e.Rule == "store_breaker":
			trace = append(trace, e.Message)
		case e.Rule == "store_quarantine":
			trace = append(trace, e.Rule)
		}
	}
	_, qerr := os.Stat(reg.Path("2014Q1") + QuarantinedExt)
	trace = append(trace, fmt.Sprintf("retries=%d stale=%d quarantined=%v",
		m.Retries.Value(), m.StaleServes.Value(), qerr == nil))
	return trace, m
}

func TestFaultsOnRetainedQuarterUnchanged(t *testing.T) {
	t.Run("load", func(t *testing.T) {
		trace, m := faultTrace(t, resilience.FPLoad+"=error", 3)
		want := []string{
			// Transient: retried, counted toward the threshold of two.
			"origin=stale err=false breaker=closed",
			"origin=stale err=false breaker=open",
			// Open: fail fast, still stale.
			"origin=stale err=false breaker=open",
			// Cleared: the half-open probe loads and closes the breaker.
			"origin=local err=false breaker=closed",
			"load breaker half-open -> closed",
			"load breaker open -> half-open",
			"load breaker closed -> open",
			"retries=4 stale=3 quarantined=false",
		}
		assertTrace(t, trace, want)
		// The recovering load found the file unchanged and promoted.
		if p := m.Promotions.Value(); p != 1 {
			t.Errorf("promotions = %d, want 1", p)
		}
	})
	t.Run("decode", func(t *testing.T) {
		trace, m := faultTrace(t, resilience.FPDecode+"=error", 1)
		want := []string{
			// Corrupt: not retried, quarantined, served stale; the
			// quarter leaves discovery and its breaker goes with it.
			"origin=stale err=false breaker=none",
			"origin=stale err=false breaker=none",
			"store_quarantine",
			"load breaker closed -> open",
			"retries=0 stale=2 quarantined=true",
		}
		assertTrace(t, trace, want)
		if p := m.Promotions.Value(); p != 0 {
			t.Errorf("promotions = %d, want 0", p)
		}
	})
}

func assertTrace(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace:\n got  %q\n want %q", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q\n got  %q", i, got[i], want[i], got)
		}
	}
}

// A replica peer's copy is never promoted, even if it somehow carried
// the identity of the file on disk: its bytes were not read from it.
func TestPeerCopyNeverPromoted(t *testing.T) {
	t.Cleanup(resilience.DisableAll)
	reg, m, _, _ := promoteRegistry(t, tempStore(t, 2))
	peerCopy := quarterAnalysis(t, 8)
	reg.SetPeerFetch(func(context.Context, string) (*core.Analysis, error) { return peerCopy, nil })

	// The local load fails; the peer answers and its copy is retained.
	if err := resilience.Enable(resilience.FPLoad + "=error*3"); err != nil {
		t.Fatal(err)
	}
	if a, origin := mustLoad(t, reg, "2014Q1"); a != peerCopy || origin != OriginPeer {
		t.Fatalf("peer serve: origin %v", origin)
	}
	resilience.DisableAll()
	local, origin := mustLoad(t, reg, "2014Q1")
	if local == peerCopy || origin != OriginLocal {
		t.Fatalf("recovered load served the peer copy (origin %v)", origin)
	}

	// Forge the worst case: a peer copy labelled with the current
	// file's identity.
	id := loadedID(reg, "2014Q1")
	if id.info == nil {
		t.Fatal("decoded entry has no file identity")
	}
	mustLoad(t, reg, "2014Q2") // evict 2014Q1
	plantPeerCopy(reg, "2014Q1", peerCopy, id)
	if a, _ := mustLoad(t, reg, "2014Q1"); a == peerCopy {
		t.Fatal("peer copy promoted")
	}
	if p := m.Promotions.Value(); p != 0 {
		t.Errorf("promotions = %d, want 0", p)
	}
}

// The last-good cache keeps the most recently used quarters: a reload
// refreshes a copy's recency, so the cap evicts the one used longest
// ago rather than the one decoded first.
func TestStaleCacheKeepsRecentlyUsed(t *testing.T) {
	dir := tempStore(t, 3)
	reg, err := OpenRegistry(dir, RegistryOptions{MaxOpen: 1, Resilience: &ResilienceOptions{StaleCap: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []string{"2014Q1", "2014Q2", "2014Q1", "2014Q3"} {
		mustLoad(t, reg, l)
	}
	if !reg.HasStale("2014Q1") || reg.HasStale("2014Q2") || !reg.HasStale("2014Q3") {
		t.Fatalf("retained: Q1 %v Q2 %v Q3 %v; want Q1 and Q3",
			reg.HasStale("2014Q1"), reg.HasStale("2014Q2"), reg.HasStale("2014Q3"))
	}
}

// Concurrent loads of the same quarters across evictions, promotions,
// rescans and trend assemblies are race-free (run under -race), always
// answer with the quarter asked for, and every LRU miss is exactly one
// decode or one promotion.
func TestConcurrentLoadsAcrossPromotion(t *testing.T) {
	reg, m, _, onLoads := promoteRegistry(t, tempStore(t, 3))
	labels := reg.Quarters()
	want := map[string]int{}
	for _, l := range labels {
		a, _ := mustLoad(t, reg, l)
		want[l] = a.Stats.Reports
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				l := labels[rng.Intn(len(labels))]
				a, _, err := reg.LoadResilient(context.Background(), l)
				if err != nil {
					t.Error(err)
					return
				}
				if a.Stats.Reports != want[l] {
					t.Errorf("load %s answered with %d reports, want %d", l, a.Stats.Reports, want[l])
					return
				}
				switch i % 50 {
				case 0:
					if err := reg.Refresh(); err != nil {
						t.Error(err)
					}
				case 25:
					if _, err := reg.TrendAnalysis(); err != nil {
						t.Error(err)
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	decodes := m.LoadSeconds.Count()
	if got := decodes + m.Promotions.Value(); got != m.Misses.Value() {
		t.Errorf("decodes %d + promotions %d != misses %d", decodes, m.Promotions.Value(), m.Misses.Value())
	}
	if m.Promotions.Value() == 0 {
		t.Error("no promotions under eviction churn")
	}
	if n := onLoads(); int64(n) != decodes {
		t.Errorf("OnLoad calls %d, decodes %d", n, decodes)
	}
}

// A quarter rewritten behind the registry's back is picked up by the
// next rescan whether it is resident or evicted: its resident copy and
// quality report are dropped and the trend assembly is rebuilt from
// the new bytes.
func TestRefreshForgetsRewrittenQuarters(t *testing.T) {
	dir := tempStore(t, 2) // pair support 8, 12
	reg, err := OpenRegistry(dir, RegistryOptions{MaxOpen: 1})
	if err != nil {
		t.Fatal(err)
	}
	support := func() []int {
		t.Helper()
		_, tr, err := reg.Timeline("ASPIRIN+WARFARIN")
		if err != nil || tr == nil {
			t.Fatalf("timeline: %v, %v", tr, err)
		}
		var s []int
		for _, p := range tr.Points {
			s = append(s, p.Support)
		}
		return s
	}
	before := support() // loads Q1 then Q2: Q1 evicted, Q2 resident
	if _, err := reg.Quality("2014Q1"); err != nil {
		t.Fatal(err)
	}
	for i, l := range []string{"2014Q1", "2014Q2"} {
		if err := WriteFile(filepath.Join(dir, l+Ext), l, quarterAnalysis(t, 20+i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := support(); got[0] != before[0] || got[1] != before[1] {
		t.Fatalf("trend moved before any rescan or load: %v -> %v", before, got)
	}
	if err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	if reg.OpenCount() != 0 {
		t.Errorf("rewritten resident quarter still open after rescan")
	}
	_, cached := cachedQuality(reg)["2014Q1"]
	if cached {
		t.Error("quality report of the old bytes survived the rescan")
	}
	after := support()
	if after[0] <= before[0] || after[1] <= before[1] {
		t.Fatalf("trend after rescan %v, before %v; want both quarters' new support", after, before)
	}
	// An unchanged store rescans without forgetting anything.
	if err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	if reg.OpenCount() != 1 {
		t.Errorf("rescan of an unchanged store dropped a resident quarter")
	}
}

// A load that finds a quarter's file changed since its last load
// invalidates the trend assembly on its own, with no rescan between.
func TestLoadOfChangedFileInvalidatesTrend(t *testing.T) {
	dir := tempStore(t, 2)
	reg, err := OpenRegistry(dir, RegistryOptions{MaxOpen: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := reg.TrendAnalysis() // Q1 ends evicted
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(dir, "2014Q1"+Ext), "2014Q1", quarterAnalysis(t, 30)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("2014Q1"); err != nil {
		t.Fatal(err)
	}
	second, err := reg.TrendAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if second == first {
		t.Fatal("trend assembly not rebuilt after a load found the file changed")
	}
	if p := second.Find("ASPIRIN+WARFARIN").Points[0].Support; p != 30 {
		t.Errorf("rebuilt trend support = %d, want 30", p)
	}
}

// Open keeps decoding every time, and a stat of the file it read
// still matches the identity it recorded, while a rewrite does not.
func TestOpenFileIdentity(t *testing.T) {
	dir := tempStore(t, 1)
	path := filepath.Join(dir, "2014Q1"+Ext)
	s1, id1, err := openFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, id2, err := openFile(path, func(fileID) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if s1 == nil || s2 == nil || s1.Analysis == s2.Analysis {
		t.Fatal("openFile did not decode each time")
	}
	if !id1.same(id2) {
		t.Fatal("two reads of an unchanged file have different identities")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !id1.matches(fi) {
		t.Fatal("identity does not match a stat of the same file")
	}
	if s, id, err := openFile(path, id1.same); err != nil || s != nil || !id.same(id1) {
		t.Fatalf("current identity: snapshot %v, err %v; want nil snapshot, no error", s, err)
	}
	if err := WriteFile(path, "2014Q1", quarterAnalysis(t, 9)); err != nil {
		t.Fatal(err)
	}
	s3, id3, err := openFile(path, id1.same)
	if err != nil || s3 == nil || id3.same(id1) {
		t.Fatalf("rewritten file: snapshot %v, same identity %v, err %v", s3 != nil, id3.same(id1), err)
	}
	if (fileID{}).same(fileID{}) || (fileID{}).matches(fi) {
		t.Fatal("the zero identity matched")
	}
	if _, _, err := openFile(filepath.Join(dir, "absent"+Ext), nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file error = %v", err)
	}
}
