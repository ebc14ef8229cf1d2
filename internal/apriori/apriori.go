// Package apriori implements the classic Apriori frequent-itemset
// miner. It is the "traditional association rule mining algorithm"
// baseline the paper measures against (the Total Rules series of
// Fig 5.1, and the performance baseline for FP-Growth): level-wise
// candidate generation with the downward-closure prune, counted by
// database scan.
package apriori

import (
	"sort"

	"maras/internal/txdb"
	"maras/internal/types"
)

// Options mirrors fpgrowth.Options so harness code can run either
// miner interchangeably.
type Options struct {
	MinSupport int
	MaxLen     int
}

// Mine enumerates all frequent itemsets of db under opts using the
// level-wise Apriori algorithm. Results match fpgrowth.Mine exactly
// (the test suite enforces it); only the cost model differs.
func Mine(db *txdb.DB, opts Options) []types.FrequentSet {
	if opts.MinSupport < 1 {
		opts.MinSupport = 1
	}
	var out []types.FrequentSet

	// L1: frequent single items.
	freq := make(map[types.Item]int)
	for t := range txdb.TID(db.Len()) {
		for _, it := range db.Tx(t).Items {
			freq[it]++
		}
	}
	var level []types.Itemset
	for it, c := range freq {
		if c >= opts.MinSupport {
			level = append(level, types.Itemset{it})
			out = append(out, types.FrequentSet{Items: types.Itemset{it}, Support: c})
		}
	}
	sortSets(level)

	k := 1
	for len(level) > 0 {
		k++
		if opts.MaxLen > 0 && k > opts.MaxLen {
			break
		}
		candidates := generate(level)
		if len(candidates) == 0 {
			break
		}
		counts := countCandidates(db, candidates, k)
		prevKeys := keySet(level)
		level = level[:0]
		for i, c := range candidates {
			if counts[i] < opts.MinSupport {
				continue
			}
			// Downward-closure check happens in generate via prevKeys;
			// generate already pruned, so survivors are frequent.
			_ = prevKeys
			level = append(level, c)
			out = append(out, types.FrequentSet{Items: c, Support: counts[i]})
		}
		sortSets(level)
	}
	return out
}

// generate joins each pair of (k-1)-itemsets sharing a (k-2)-prefix,
// then prunes candidates having an infrequent (k-1)-subset.
func generate(level []types.Itemset) []types.Itemset {
	prev := keySet(level)
	var out []types.Itemset
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i], level[j]
			n := len(a)
			if !samePrefix(a, b, n-1) {
				break // level is sorted; once prefixes diverge, stop
			}
			var cand types.Itemset
			if a[n-1] < b[n-1] {
				cand = append(a.Clone(), b[n-1])
			} else {
				cand = append(b.Clone(), a[n-1])
			}
			if allSubsetsFrequent(cand, prev) {
				out = append(out, cand)
			}
		}
	}
	return out
}

func samePrefix(a, b types.Itemset, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func allSubsetsFrequent(cand types.Itemset, prev map[string]bool) bool {
	ok := true
	cand.SubsetsOfSize(len(cand)-1, func(sub types.Itemset) bool {
		if !prev[sub.Key()] {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// countCandidates scans the database once, counting each candidate's
// support. Candidates are indexed by their first item to avoid testing
// every candidate against every transaction.
func countCandidates(db *txdb.DB, candidates []types.Itemset, k int) []int {
	counts := make([]int, len(candidates))
	byFirst := make(map[types.Item][]int)
	for i, c := range candidates {
		byFirst[c[0]] = append(byFirst[c[0]], i)
	}
	for t := range txdb.TID(db.Len()) {
		tx := db.Tx(t).Items
		if len(tx) < k {
			continue
		}
		for _, it := range tx {
			for _, ci := range byFirst[it] {
				if tx.ContainsAll(candidates[ci]) {
					counts[ci]++
				}
			}
		}
	}
	return counts
}

func keySet(level []types.Itemset) map[string]bool {
	m := make(map[string]bool, len(level))
	for _, s := range level {
		m[s.Key()] = true
	}
	return m
}

func sortSets(sets []types.Itemset) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i], sets[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
