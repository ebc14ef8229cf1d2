package store

import (
	"context"
	"os"
	"sync"
	"testing"
	"time"

	"maras/internal/core"
	"maras/internal/obs"
)

// A quarter evicted from both the LRU and the last-good cache decodes
// again on its next load, but OnLoad sees the bytes again only when
// Dirty asks for them, when they change, or when the registry has
// forgotten them: OnLoad runs once per distinct file identity, plus
// dirty re-routes.
func TestRedecodeOfUnchangedQuarterSkipsOnLoad(t *testing.T) {
	var mu sync.Mutex
	dirty := map[string]bool{}
	var loaded []*core.Analysis // OnLoad's analyses of 2014Q1, in order
	m := obs.NewStoreMetrics(obs.NewRegistry())
	reg, err := OpenRegistry(tempStore(t, 3), RegistryOptions{
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
		Resilience: &ResilienceOptions{StaleCap: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	calls := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(loaded)
	}
	// cycle loads 2014Q2 and 2014Q3, which pushes 2014Q1 out of the
	// one-slot LRU and the one-copy last-good cache, then loads 2014Q1.
	cycle := func(step string) *core.Analysis {
		t.Helper()
		mustLoad(t, reg, "2014Q2")
		mustLoad(t, reg, "2014Q3")
		decodes := m.LoadSeconds.Count()
		a, _ := mustLoad(t, reg, "2014Q1")
		if got := m.LoadSeconds.Count(); got != decodes+1 {
			t.Fatalf("%s: 2014Q1 load made %d decodes, want 1", step, got-decodes)
		}
		if p := m.Promotions.Value(); p != 0 {
			t.Fatalf("%s: promotions = %d, want 0 (nothing retained to promote)", step, p)
		}
		return a
	}

	first, _ := mustLoad(t, reg, "2014Q1")
	if got := calls(); got != 1 {
		t.Fatalf("first load: OnLoad calls = %d, want 1", got)
	}
	again := cycle("clean re-decode")
	if again == first {
		t.Fatal("clean re-decode returned the first copy")
	}
	if got := calls(); got != 1 {
		t.Fatalf("clean re-decode: OnLoad calls = %d, want still 1", got)
	}

	mu.Lock()
	dirty["2014Q1"] = true
	mu.Unlock()
	marked := cycle("dirty re-decode")
	if got := calls(); got != 2 || loaded[1] != marked || marked == again {
		t.Fatalf("dirty re-decode: OnLoad calls = %d, want 2 with the new copy", got)
	}
	cycle("re-decode after the mark cleared")
	if got := calls(); got != 2 {
		t.Fatalf("re-decode after the mark cleared: OnLoad calls = %d, want 2", got)
	}

	// An external write of the same analysis is new bytes of a new file.
	if err := WriteFile(reg.Path("2014Q1"), "2014Q1", first); err != nil {
		t.Fatal(err)
	}
	cycle("re-decode after an external write")
	if got := calls(); got != 3 {
		t.Fatalf("after an external write: OnLoad calls = %d, want 3", got)
	}

	// Save forgets the quarter, so its next load, an LRU miss, calls
	// OnLoad.
	if err := reg.Save("2014Q1", first); err != nil {
		t.Fatal(err)
	}
	mustLoad(t, reg, "2014Q1")
	if got := calls(); got != 4 {
		t.Fatalf("after Save: OnLoad calls = %d, want 4", got)
	}

	// A rescan of an unchanged store forgets nothing; one that finds the
	// file touched forgets it, and the next load calls OnLoad although
	// the bytes are the same.
	if err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	cycle("re-decode after a clean rescan")
	if got := calls(); got != 4 {
		t.Fatalf("after a clean rescan: OnLoad calls = %d, want 4", got)
	}
	later := time.Now().Add(time.Hour)
	if err := os.Chtimes(reg.Path("2014Q1"), later, later); err != nil {
		t.Fatal(err)
	}
	if err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	if reg.OpenCount() != 0 {
		t.Fatal("the rescan did not forget the touched quarter")
	}
	mustLoad(t, reg, "2014Q1")
	if got := calls(); got != 5 {
		t.Fatalf("after a rescan forgot the quarter: OnLoad calls = %d, want 5", got)
	}
}

// Every loader fills the last-good cache, not only LoadResilient: a
// quarter first loaded by the quality sweep or the trend assembly is
// promoted, not decoded, when serving brings it back after eviction.
func TestEveryLoaderRetainsItsCopy(t *testing.T) {
	for name, warm := range map[string]func(*Registry) error{
		"load": func(reg *Registry) error { _, err := reg.Load("2014Q1"); return err },
		"quality": func(reg *Registry) error {
			_, err := reg.Quality("2014Q1")
			return err
		},
		"trend": func(reg *Registry) error { _, err := reg.TrendAnalysis(); return err },
	} {
		t.Run(name, func(t *testing.T) {
			reg, m, _, _ := promoteRegistry(t, tempStore(t, 2))
			if err := warm(reg); err != nil {
				t.Fatal(err)
			}
			if !reg.HasStale("2014Q1") {
				t.Fatal("no last-good copy after the load")
			}
			mustLoad(t, reg, "2014Q2") // 2014Q1 is out of the LRU
			decodes := m.LoadSeconds.Count()
			mustLoad(t, reg, "2014Q1")
			if got := m.LoadSeconds.Count(); got != decodes {
				t.Errorf("serving 2014Q1 decoded %d more times, want a promotion", got-decodes)
			}
			if p := m.Promotions.Value(); p != 1 {
				t.Errorf("promotions = %d, want 1", p)
			}
		})
	}
}
