// Package par is the pipeline's one fan-out primitive: a fixed pool of
// workers that claims indices of an index space one at a time, or runs
// of neighbouring indices, and a sort built on it. Every parallel stage
// (cleaning, LCM root branches and its output sort, rule generation and
// its sort, MCAC construction, signal linking) runs on it, so
// scheduling, per-worker scratch and the serial fallback are decided in
// one place.
package par

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Workers returns how many workers Do(n, workers, ...) runs: workers
// capped at n, and at least 1. Callers size per-worker scratch with it.
func Workers(n, workers int) int {
	return max(1, min(workers, n))
}

// Do calls fn(w, i) exactly once for every i in [0, n), on
// Workers(n, workers) workers. w in [0, Workers(n, workers)) names the
// worker making the call, so fn may use per-worker scratch indexed by w
// without locking; one worker's calls never overlap. Workers claim the
// next unclaimed index as they finish the last, so uneven items
// balance themselves. Worker 0 runs on the calling goroutine; with one
// worker Do starts no goroutines and visits the indices in order. Do
// returns when every call has.
func Do(n, workers int, fn func(w, i int)) {
	k := Workers(n, workers)
	if k == 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	drain := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < k; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drain(w)
		}()
	}
	drain(0)
	wg.Wait()
}

// runsPerWorker is how many runs DoRuns hands each worker on average:
// more balance uneven runs, fewer keep more of what neighbouring
// indices share in a worker's scratch.
const runsPerWorker = 4

// DoRuns calls fn(w, lo, hi) for consecutive runs [lo, hi) that
// together cover [0, n) exactly once, through Do, so w is below
// Workers(n, workers) and one worker's calls never overlap. With one
// worker it makes the single call fn(0, 0, n) (none for n = 0); with
// more, it cuts up to runsPerWorker runs per worker.
func DoRuns(n, workers int, fn func(w, lo, hi int)) {
	runs := min(n, 1)
	if workers > 1 {
		runs = min(n, workers*runsPerWorker)
	}
	Do(runs, workers, func(w, r int) {
		fn(w, r*n/runs, (r+1)*n/runs)
	})
}

// SortFunc sorts s by cmp on up to workers goroutines: it cuts s into
// one equal run per worker, sorts the runs in parallel, then merges
// neighbouring runs pairwise, each round's merges in parallel, until
// one run is left. cmp must be a total order under which no two
// elements of s compare equal; the result is then the one a single
// sort gives, whatever the worker count. It returns the sorted
// elements, which lie in s itself or in a new slice of the same
// length; with one worker it sorts s in place.
func SortFunc[E any](s []E, cmp func(a, b E) int, workers int) []E {
	k := Workers(len(s), workers)
	// bounds[r] is where run r starts; the last entry closes the last run.
	bounds := make([]int, k+1)
	for r := range bounds {
		bounds[r] = r * len(s) / k
	}
	Do(k, workers, func(_, r int) {
		slices.SortFunc(s[bounds[r]:bounds[r+1]], cmp)
	})
	if k == 1 {
		return s
	}
	src, dst := s, make([]E, len(s))
	for len(bounds) > 2 {
		runs := len(bounds) - 1
		Do((runs+1)/2, workers, func(_, p int) {
			lo, mid := bounds[2*p], bounds[min(2*p+1, runs)]
			hi := bounds[min(2*p+2, runs)]
			merge(dst[lo:hi], src[lo:mid], src[mid:hi], cmp)
		})
		next := bounds[:0]
		for r := 0; r < runs; r += 2 {
			next = append(next, bounds[r])
		}
		bounds = append(next, bounds[runs])
		src, dst = dst, src
	}
	return src
}

// Permute reorders aligned slices in place by order, a permutation
// of [0, len(order)) such as sorting an index slice leaves: afterwards
// position j holds the element that was at order[j]. swap(i, j) must
// swap positions i and j of every aligned slice. order is left as the
// identity.
func Permute(order []int32, swap func(i, j int)) {
	for i := range order {
		// Follow i's cycle: each step puts one element in place.
		j := i
		for int(order[j]) != i {
			k := int(order[j])
			swap(j, k)
			order[j] = int32(j)
			j = k
		}
		order[j] = int32(j)
	}
}

// merge merges the sorted runs a and b into dst, which holds exactly
// len(a)+len(b) elements.
func merge[E any](dst, a, b []E, cmp func(a, b E) int) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || (i < len(a) && cmp(a[i], b[j]) < 0) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}
