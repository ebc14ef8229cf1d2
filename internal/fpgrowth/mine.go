package fpgrowth

import (
	"sort"

	"maras/internal/txdb"
	"maras/internal/types"
)

// Options tunes the miner.
type Options struct {
	// MinSupport is the absolute minimum support (count of reports).
	// Values below 1 are treated as 1.
	MinSupport int
	// MaxLen bounds the itemset length; 0 means unbounded. FAERS
	// signals of interest involve a handful of drugs plus reactions,
	// so pipelines usually set a bound (e.g. 10) as a safety valve.
	MaxLen int
}

func (o Options) normalized() Options {
	if o.MinSupport < 1 {
		o.MinSupport = 1
	}
	return o
}

// Mine enumerates every frequent itemset in db under opts, in no
// particular order.
func Mine(db *txdb.DB, opts Options) []types.FrequentSet {
	opts = opts.normalized()
	var out []types.FrequentSet
	MineFunc(db, opts, func(fs types.FrequentSet) bool {
		out = append(out, fs)
		return true
	})
	return out
}

// MineFunc streams every frequent itemset to fn; returning false stops
// the mining early. The itemset passed to fn is freshly allocated and
// may be retained.
func MineFunc(db *txdb.DB, opts Options, fn func(types.FrequentSet) bool) {
	opts = opts.normalized()
	t, _ := buildInitial(db, opts.MinSupport)
	var suffix types.Itemset
	mineTree(t, suffix, opts, fn)
}

// mineTree is the FP-Growth recursion: for each frequent item in t
// (least-frequent first), emit suffix+item and recurse into the
// conditional tree.
func mineTree(t *tree, suffix types.Itemset, opts Options, fn func(types.FrequentSet) bool) bool {
	if opts.MaxLen > 0 && len(suffix) >= opts.MaxLen {
		return true
	}
	// Single-path shortcut: every combination of path items extends
	// the suffix; support of a combination is the minimum count along
	// the chosen items, which (counts are non-increasing along the
	// path) is the count of the deepest chosen node.
	if items, counts, ok := t.singlePath(); ok {
		return mineSinglePath(items, counts, suffix, opts, fn)
	}
	for _, it := range t.items() {
		ext := suffix.Union(types.Itemset{it})
		if !fn(types.FrequentSet{Items: ext, Support: t.counts[it]}) {
			return false
		}
		if opts.MaxLen > 0 && len(ext) >= opts.MaxLen {
			continue
		}
		cond := t.conditional(it)
		if len(cond.counts) == 0 {
			continue
		}
		if !mineTree(cond, ext, opts, fn) {
			return false
		}
	}
	return true
}

// mineSinglePath emits every non-empty combination of the single-path
// items (filtered to frequent ones) unioned with suffix.
func mineSinglePath(items []types.Item, counts []int, suffix types.Itemset, opts Options, fn func(types.FrequentSet) bool) bool {
	// Keep only items meeting minsup; counts along a path are
	// non-increasing, so a prefix survives.
	n := 0
	for i, c := range counts {
		if c >= opts.MinSupport {
			n = i + 1
		} else {
			break
		}
	}
	if n > 20 {
		// Fall back is unnecessary in practice (paths this deep with
		// uniform counts do not occur in report data); guard anyway.
		n = 20
	}
	for mask := 1; mask < 1<<uint(n); mask++ {
		var combo types.Itemset
		sup := 0
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				combo = append(combo, items[i])
				sup = counts[i] // deepest selected node's count
			}
		}
		ext := suffix.Union(combo.Normalize())
		if opts.MaxLen > 0 && len(ext) > opts.MaxLen {
			continue
		}
		if !fn(types.FrequentSet{Items: ext, Support: sup}) {
			return false
		}
	}
	return true
}

// MineClosed returns only the closed frequent itemsets of db: those
// with no proper superset of equal support (Definition 3.4.1). The
// result is deterministic: sorted by descending support, then by
// ascending length, then lexicographic items.
func MineClosed(db *txdb.DB, opts Options) []types.FrequentSet {
	all := Mine(db, opts)
	closed := FilterClosed(all)
	sort.Slice(closed, func(i, j int) bool {
		a, b := closed[i], closed[j]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if len(a.Items) != len(b.Items) {
			return len(a.Items) < len(b.Items)
		}
		for k := range a.Items {
			if a.Items[k] != b.Items[k] {
				return a.Items[k] < b.Items[k]
			}
		}
		return false
	})
	return closed
}

// FilterClosed removes every itemset that has a proper superset with
// equal support within sets. Sets must contain each itemset at most
// once (Mine guarantees this).
//
// The check uses the classic support-bucketed subsumption index:
// group candidates by support, and within a bucket test subset
// containment longest-first. Only supersets with *equal* support can
// subsume (a proper superset can never have higher support).
func FilterClosed(sets []types.FrequentSet) []types.FrequentSet {
	bySupport := make(map[int][]types.FrequentSet)
	for _, fs := range sets {
		bySupport[fs.Support] = append(bySupport[fs.Support], fs)
	}
	var out []types.FrequentSet
	for _, bucket := range bySupport {
		// Longest first: an itemset can only be subsumed by a longer one.
		sort.Slice(bucket, func(i, j int) bool { return len(bucket[i].Items) > len(bucket[j].Items) })
		kept := make([]types.FrequentSet, 0, len(bucket))
		for _, fs := range bucket {
			subsumed := false
			for _, k := range kept {
				if len(k.Items) <= len(fs.Items) {
					break // kept is sorted by length desc; no longer sets remain
				}
				if k.Items.ContainsAll(fs.Items) {
					subsumed = true
					break
				}
			}
			if !subsumed {
				kept = append(kept, fs)
			}
		}
		out = append(out, kept...)
	}
	return out
}

// Closure returns the closure of set within db: the maximal superset
// occurring in exactly the same transactions. Support 0 inputs return
// set unchanged. The closure is the intersection of all transactions
// containing set.
func Closure(db *txdb.DB, set types.Itemset) types.Itemset {
	tids := db.TIDs(set, nil)
	if len(tids) == 0 {
		return set.Clone()
	}
	closure := db.Tx(tids[0]).Items.Clone()
	for _, tid := range tids[1:] {
		closure = closure.Intersect(db.Tx(tid).Items)
		if closure.Equal(set) {
			break // cannot shrink below set
		}
	}
	return closure
}
