// Package lcm implements closed frequent itemset mining with the LCM
// (Linear-time Closed itemset Miner, Uno et al.) algorithm over the
// transaction database's vertical layout: prefix-preserving closure
// extension enumerates each closed itemset exactly once, with no
// candidate storage and no subsumption index.
//
// It is the production miner: the pipeline (package core) takes its
// closed sets from MineClosed. Package fpgrowth's mine-then-filter
// MineClosed is the reference the test suites hold LCM to, and its
// full frequent-set Mine serves only the rule-space counts of Fig 5.1.
package lcm

import (
	"sort"

	"maras/internal/fpgrowth"
	"maras/internal/txdb"
	"maras/internal/types"
)

// Options mirrors fpgrowth.Options.
type Options struct {
	// MinSupport is the absolute minimum support (≥ 1).
	MinSupport int
	// MaxLen bounds itemset length; 0 (or less) = unbounded.
	// Closedness is relative to the bounded universe, matching
	// fpgrowth.MineClosed: every closed set of at most MaxLen items,
	// plus, for each longer closed set C, the MaxLen-item subsets of C
	// with C's support (they have no equal-support superset within
	// the bound).
	MaxLen int
}

// MineClosed enumerates all closed frequent itemsets of db. The
// result order matches fpgrowth.MineClosed (support desc, then
// length, then lexicographic) for interchangeability.
func MineClosed(db *txdb.DB, opts Options) []fpgrowth.FrequentSet {
	if opts.MinSupport < 1 {
		opts.MinSupport = 1
	}
	if opts.MaxLen < 0 {
		opts.MaxLen = 0
	}
	m := newMiner(db, opts)
	// Root: process the full database; the closure of the empty set
	// (items present in every transaction) is emitted by process when
	// non-empty.
	m.process(m.allTids(), nil, types.NoItem, true)

	out := m.out
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out
}

type miner struct {
	db   *txdb.DB
	opts Options
	// counts and slot are occurrence-deliver scratch arrays indexed by
	// item ID. process restores both (counts to 0, slot to -1) before
	// recursing, so one pair serves the whole traversal; touched is
	// likewise consumed before recursion.
	counts  []int
	slot    []int32
	touched []types.Item
	out     []fpgrowth.FrequentSet
}

func newMiner(db *txdb.DB, opts Options) *miner {
	m := &miner{
		db:     db,
		opts:   opts,
		counts: make([]int, db.Dict().Len()),
		slot:   make([]int32, db.Dict().Len()),
	}
	for i := range m.slot {
		m.slot[i] = -1
	}
	return m
}

func (m *miner) allTids() []txdb.TID {
	tids := make([]txdb.TID, m.db.Len())
	for i := range tids {
		tids[i] = txdb.TID(i)
	}
	return tids
}

// candidate is an extension item of a node with its conditional
// tidset.
type candidate struct {
	item types.Item
	tids []txdb.TID
}

// process handles one node of the LCM traversal: tids is the
// conditional tidset (the transactions containing the node's
// generator), prevClosed the parent's closed set, coreIt the item
// whose addition produced this node (types.NoItem at the root), and
// isRoot marks the database root. Occurrence deliver — two scans of
// the conditional transactions — derives the node's closure, its
// extension candidates and every candidate's tidset; the node then
// enforces the prefix-preservation condition, emits the closed set,
// and recurses.
func (m *miner) process(tids []txdb.TID, prevClosed types.Itemset, coreIt types.Item, isRoot bool) {
	if len(tids) < m.opts.MinSupport { // MinSupport ≥ 1
		return
	}
	// First scan: item counts within the conditional database.
	m.touched = m.touched[:0]
	for _, tid := range tids {
		for _, it := range m.db.Tx(tid).Items {
			if m.counts[it] == 0 {
				m.touched = append(m.touched, it)
			}
			m.counts[it]++
		}
	}
	n := len(tids)
	var closure types.Itemset
	var cands []candidate
	total := 0
	for _, it := range m.touched {
		switch c := m.counts[it]; {
		case c == n:
			closure = append(closure, it)
		case c >= m.opts.MinSupport && it > coreIt:
			cands = append(cands, candidate{item: it})
			total += c
		}
	}
	closure = closure.Normalize()

	// ppc check: items of the closure below the core item must already
	// belong to the parent's closed set, otherwise this closed set is
	// generated from a smaller core elsewhere. The root has no core;
	// its closure (items present in every transaction) may be empty.
	if !isRoot && !prefixPreserved(prevClosed, closure, coreIt) {
		m.resetCounts()
		return
	}
	if len(closure) > 0 {
		m.emit(closure, n)
	}
	if len(cands) == 0 {
		m.resetCounts()
		return
	}

	// Second scan: deliver each transaction to the tidsets of the
	// candidates it contains, carved out of one block.
	sort.Slice(cands, func(i, j int) bool { return cands[i].item < cands[j].item })
	block := make([]txdb.TID, total)
	off := 0
	for i := range cands {
		c := m.counts[cands[i].item]
		cands[i].tids = block[off : off : off+c]
		m.slot[cands[i].item] = int32(i)
		off += c
	}
	m.resetCounts()
	for _, tid := range tids {
		for _, it := range m.db.Tx(tid).Items {
			if k := m.slot[it]; k >= 0 {
				cands[k].tids = append(cands[k].tids, tid)
			}
		}
	}
	for _, c := range cands {
		m.slot[c.item] = -1
	}

	// Recurse even past the length bound: the children of a long
	// closed set are longer still, but each can contribute its own
	// bounded subsets.
	for _, c := range cands {
		m.process(c.tids, closure, c.item, false)
	}
}

// resetCounts zeroes the counts of the items the last scan touched.
func (m *miner) resetCounts() {
	for _, it := range m.touched {
		m.counts[it] = 0
	}
}

// emit records the closed set c of support n. Under a length
// bound L a longer c stands for its L-subsets of equal support:
// those have no equal-support proper superset of at most L items, so
// they are closed within the bounded universe. Each such subset has c
// as its closure, so no subset is emitted twice.
func (m *miner) emit(c types.Itemset, n int) {
	if m.opts.MaxLen == 0 || len(c) <= m.opts.MaxLen {
		m.out = append(m.out, fpgrowth.FrequentSet{Items: c, Support: n})
		return
	}
	m.boundedSubsets(c, n, make(types.Itemset, 0, m.opts.MaxLen), 0, nil)
}

// boundedSubsets extends prefix (a subset of c drawn from c[from:]
// onwards, with tidset prefixTids; nil means every transaction) to
// MaxLen items and emits every completion whose support equals n,
// the support of c. The prefix's tidset only shrinks as items of c
// are added and never below c's, so once it holds n transactions it
// is c's tidset and needs no further intersection.
func (m *miner) boundedSubsets(c types.Itemset, n int, prefix types.Itemset, from int, prefixTids []txdb.TID) {
	if len(prefix) == m.opts.MaxLen {
		if len(prefixTids) == n {
			m.out = append(m.out, fpgrowth.FrequentSet{Items: prefix.Clone(), Support: n})
		}
		return
	}
	// Leave room for the items the bound still needs.
	last := len(c) - (m.opts.MaxLen - len(prefix))
	for i := from; i <= last; i++ {
		tids := prefixTids
		switch {
		case tids == nil:
			tids = m.db.Postings(c[i])
		case len(tids) > n:
			tids = intersectTids(tids, m.db.Postings(c[i]))
		}
		m.boundedSubsets(c, n, append(prefix, c[i]), i+1, tids)
	}
}

// prefixPreserved reports whether closure's items below j all belong
// to c (the prefix-preservation condition of LCM).
func prefixPreserved(c, closure types.Itemset, j types.Item) bool {
	for _, it := range closure {
		if it >= j {
			break
		}
		if !c.Contains(it) {
			return false
		}
	}
	return true
}

// intersectTids intersects two sorted TID lists.
func intersectTids(a, b []txdb.TID) []txdb.TID {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := make([]txdb.TID, 0, len(a))
	i := 0
	for _, v := range a {
		for i < len(b) && b[i] < v {
			i++
		}
		if i < len(b) && b[i] == v {
			out = append(out, v)
			i++
		}
	}
	return out
}
