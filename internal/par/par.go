// Package par is the pipeline's one fan-out primitive: a fixed pool of
// workers that claims indices of an index space one at a time. Every
// parallel stage (LCM root branches, MCAC construction, signal
// linking) runs on it, so scheduling, per-worker scratch and the
// serial fallback are decided in one place.
package par

import (
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
