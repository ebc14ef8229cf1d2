package par

import (
	"math/rand"
	"runtime"
	"slices"
	"strconv"
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

// TestDoRunsCoversEachIndexOnce: the runs are non-empty, lie in
// [0, n), come from a worker in range, and cover every index once; one
// worker gets the whole range in a single call, and n = 0 makes none.
func TestDoRunsCoversEachIndexOnce(t *testing.T) {
	for _, c := range []struct{ n, workers, calls int }{
		{0, 1, 0}, {0, 4, 0}, {5, 1, 1}, {3, 4, 3}, {1000, 1, 1}, {1000, 4, 4 * runsPerWorker}, {1000, 3, 3 * runsPerWorker},
	} {
		visits := make([]atomic.Int32, c.n)
		var calls atomic.Int32
		k := Workers(c.n, c.workers)
		DoRuns(c.n, c.workers, func(w, lo, hi int) {
			calls.Add(1)
			if w < 0 || w >= k {
				t.Errorf("n=%d workers=%d: worker %d outside [0, %d)", c.n, c.workers, w, k)
			}
			if lo < 0 || lo >= hi || hi > c.n {
				t.Errorf("n=%d workers=%d: run [%d, %d)", c.n, c.workers, lo, hi)
				return
			}
			for i := lo; i < hi; i++ {
				visits[i].Add(1)
			}
		})
		if got := int(calls.Load()); got != c.calls {
			t.Errorf("n=%d workers=%d: %d runs, want %d", c.n, c.workers, got, c.calls)
		}
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: index %d visited %d times", c.n, c.workers, i, got)
			}
		}
	}
}

// TestSortFuncAnyWorkerCount sorts the same distinct elements on one to
// five workers, odd run counts included, and expects exactly the order
// a single sort gives.
func TestSortFuncAnyWorkerCount(t *testing.T) {
	type elem struct {
		key   int
		label string
	}
	cmp := func(a, b elem) int { return a.key - b.key }
	rng := rand.New(rand.NewSource(7))
	s := make([]elem, 500)
	for i, k := range rng.Perm(len(s)) {
		s[i] = elem{k, strconv.Itoa(k)}
	}
	for _, n := range []int{0, 1, 2, 7, len(s)} {
		want := slices.Clone(s[:n])
		slices.SortFunc(want, cmp)
		for workers := 1; workers <= 5; workers++ {
			if got := SortFunc(slices.Clone(s[:n]), cmp, workers); !slices.Equal(got, want) {
				t.Fatalf("n=%d workers=%d: order differs from a single sort", n, workers)
			}
		}
	}
}

// TestPermute applies random permutations to a slice and an aligned
// copy and expects each position j to hold the element at order[j].
func TestPermute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 3, 10, 257} {
		order := make([]int32, n)
		for j, k := range rng.Perm(n) {
			order[j] = int32(k)
		}
		want := make([]int, n)
		for j, k := range order {
			want[j] = 10 * int(k)
		}
		a, b := make([]int, n), make([]string, n)
		for i := range a {
			a[i], b[i] = 10*i, strconv.Itoa(10*i)
		}
		Permute(order, func(i, j int) {
			a[i], a[j] = a[j], a[i]
			b[i], b[j] = b[j], b[i]
		})
		for j := range a {
			if a[j] != want[j] || b[j] != strconv.Itoa(want[j]) || order[j] != int32(j) {
				t.Fatalf("n=%d: position %d holds %d/%s (order %d), want %d", n, j, a[j], b[j], order[j], want[j])
			}
		}
	}
}
