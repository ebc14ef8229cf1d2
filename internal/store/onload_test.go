package store

import (
	"context"
	"sync"
	"testing"

	"maras/internal/core"
)

// OnLoad fires once per distinct file identity loaded (plus any dirty
// re-route) — not per LRU hit — and again after Save invalidates the
// resident copy.
func TestRegistryOnLoad(t *testing.T) {
	dir := tempStore(t, 2)
	var mu sync.Mutex
	var calls []string
	reg, err := OpenRegistry(dir, RegistryOptions{
		OnLoad: func(_ context.Context, label string, a *core.Analysis) {
			if a == nil || len(a.Signals) == 0 {
				t.Errorf("OnLoad(%s): empty analysis", label)
			}
			mu.Lock()
			calls = append(calls, label)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	a, err := reg.Load("2014Q1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("2014Q1"); err != nil { // warm hit: no second call
		t.Fatal(err)
	}
	mu.Lock()
	got := append([]string{}, calls...)
	mu.Unlock()
	if len(got) != 1 || got[0] != "2014Q1" {
		t.Fatalf("after warm reload calls = %v, want one 2014Q1", got)
	}

	// Save invalidates the resident entry; the next load re-decodes
	// and must fire the hook again.
	if err := reg.Save("2014Q1", a); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("2014Q1"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(calls)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("after save+reload OnLoad fired %d times, want 2", n)
	}
}

// Concurrent loads of the same quarter share one decode and one
// OnLoad call (the entry's sync.Once).
func TestRegistryOnLoadSingleflight(t *testing.T) {
	dir := tempStore(t, 1)
	var mu sync.Mutex
	count := 0
	reg, err := OpenRegistry(dir, RegistryOptions{
		OnLoad: func(context.Context, string, *core.Analysis) {
			mu.Lock()
			count++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := reg.Load("2014Q1"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Fatalf("OnLoad fired %d times under concurrent load, want 1", count)
	}
}
