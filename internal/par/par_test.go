package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	for _, c := range []struct{ n, workers, want int }{
		{0, 4, 1}, {1, 4, 1}, {3, 4, 3}, {4, 4, 4}, {100, 4, 4}, {100, 1, 1}, {100, 0, 1}, {100, -2, 1},
	} {
		if got := Workers(c.n, c.workers); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

func TestDoEmpty(t *testing.T) {
	for _, workers := range []int{1, 4} {
		Do(0, workers, func(w, i int) { t.Errorf("workers=%d: fn(%d, %d) called for n=0", workers, w, i) })
	}
}

// TestDoVisitsEachIndexOnce covers more workers than items, as many,
// and fewer: every index is visited exactly once, and every call names
// a worker in range.
func TestDoVisitsEachIndexOnce(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{1, 4}, {3, 4}, {4, 4}, {1000, 4}, {1000, 3}} {
		visits := make([]atomic.Int32, c.n)
		k := Workers(c.n, c.workers)
		Do(c.n, c.workers, func(w, i int) {
			if w < 0 || w >= k {
				t.Errorf("n=%d workers=%d: worker %d outside [0, %d)", c.n, c.workers, w, k)
			}
			visits[i].Add(1)
		})
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d visited %d times", c.n, c.workers, i, got)
			}
		}
	}
}

// TestDoPerWorkerScratch: a worker's calls never overlap, so unlocked
// per-worker state indexed by w is safe (checked under -race).
func TestDoPerWorkerScratch(t *testing.T) {
	const n = 500
	sums := make([]int, Workers(n, 4))
	Do(n, 4, func(w, i int) { sums[w] += i })
	total := 0
	for _, s := range sums {
		total += s
	}
	if want := n * (n - 1) / 2; total != want {
		t.Errorf("sum over workers = %d, want %d", total, want)
	}
}

// TestDoOneWorkerInline: one worker runs on the caller's goroutine,
// in index order, without starting goroutines.
func TestDoOneWorkerInline(t *testing.T) {
	before := runtime.NumGoroutine()
	var order []int
	Do(5, 1, func(w, i int) {
		if w != 0 {
			t.Errorf("worker %d, want 0", w)
		}
		// Workers of earlier tests may still be exiting, so only a rise
		// means Do started one.
		if g := runtime.NumGoroutine(); g > before {
			t.Errorf("%d goroutines during an inline call, %d before", g, before)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order %v, want 0..4", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("inline visited %d indices, want 5", len(order))
	}
}
