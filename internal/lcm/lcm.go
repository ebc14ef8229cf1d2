// Package lcm implements closed frequent itemset mining with the LCM
// (Linear-time Closed itemset Miner, Uno et al.) algorithm:
// prefix-preserving closure extension enumerates each closed itemset
// exactly once, with no candidate storage and no subsumption index.
//
// Every node works on a conditional database projected from its
// parent's (LCM ver. 2's database reduction, Uno, Kiyomi & Arimura,
// FIMI'04). A node writes its transactions, restricted to its
// candidate extensions, into one buffer, each ended by a terminator
// that names the transaction; a child receives only the offsets just
// past its own item and scans those suffixes, so the deeper the node,
// the less it reads. The prefix-preservation check runs before the
// count scan, on the original transactions, and stops as soon as it
// knows the node passes. The root's branches are independent, so
// they are mined on a pool of GOMAXPROCS workers (package par), each
// with its own scratch. The same pool sorts the output in runs, which
// are then merged; the order is total, so the result does not depend
// on the worker count.
//
// The miner runs in its own rank space: it copies the transactions
// into one slab with every item renumbered drugs first, reactions
// after, each transaction sorted, and maps each emitted set back to
// dictionary IDs. Dictionary IDs, and so snapshots and store digests,
// do not depend on it. The order lets the miner push the paper's
// target constraint (Options.MinDrugs: a closed complete itemset with
// at least two drugs and one reaction, Lemma 3.4.2 and Defs
// 3.5.1–3.5.2) into the search, as Bonchi & Lucchese push constraints
// into closed mining (ICDM 2004). Under prefix-preserving closure
// extension a child keeps every item below its core item, and its
// descendants add only items above that core. Once the core is a
// reaction, every drug ranks below it, so the drug set is fixed for
// the whole subtree; a subtree whose parent holds too few drugs can
// hold no target and is skipped before its prefix check and count
// scan. Nodes with too few drugs or no reaction are still expanded,
// as their drug children may be targets, but not emitted.
//
// Mine also delivers what the search already holds of every emitted
// set (LCM ver. 2's occurrence deliver): its occurrence, the ascending
// TIDs whose terminators the count scan reaches, and whether the set
// is closed, which only a MaxLen bounded subset is not. A closed set
// is the intersection of the transactions in its occurrence, so the
// caller can type its support by definition (package assoc) with no
// recount.
//
// It is the only closed miner: the pipeline (package core) takes its
// closed targets and their occurrences from Mine. The tests hold it to
// a by-definition oracle that enumerates every itemset, keeps those
// equal to their closure, the intersection of the transactions that
// contain them, and filters the targets by counting their drugs and
// reactions; every occurrence must equal the database's own tidset.
package lcm

import (
	"cmp"
	"runtime"
	"slices"

	"maras/internal/par"
	"maras/internal/txdb"
	"maras/internal/types"
)

// Options tunes the miner.
type Options struct {
	// MinSupport is the absolute minimum support (≥ 1).
	MinSupport int
	// MaxLen bounds itemset length; 0 (or less) = unbounded.
	// Closedness is relative to the bounded universe: every closed set
	// of at most MaxLen items, plus, for each longer closed set C, the
	// MaxLen-item subsets of C with C's support (they have no
	// equal-support superset within the bound).
	MaxLen int
	// MinDrugs > 0 keeps only rule targets: sets with at least MinDrugs
	// drug items and at least one reaction item. Under MaxLen the
	// filter applies to each bounded subset. 0 keeps every closed set.
	// There is no upper bound on drugs: a bounded subset of a closed
	// set with too many drugs can hold fewer, so no subtree could be
	// skipped for it, and callers filter it themselves.
	MinDrugs int
}

// MineClosed enumerates the closed frequent itemsets of db (the
// targets among them under opts.MinDrugs), ordered by support
// descending, then length, then lexicographically by dictionary ID.
func MineClosed(db *txdb.DB, opts Options) []types.FrequentSet {
	return Mine(db, opts).Sets
}

// Mined is a mining result in which every set carries what the search
// knew of it: its occurrence and whether it is closed, by index into
// Sets. Both stay available after the caller drops Sets.
type Mined struct {
	// Sets is what MineClosed returns, in its order.
	Sets []types.FrequentSet

	slabs  [][]txdb.TID // occurrence windows, back to back
	spans  []span       // Sets[i] occurs in spans[i]
	closed []bool
}

// span is a window of one of Mined.slabs.
type span struct{ slab, lo, hi int32 }

// slabTIDs is the size of the slabs occurrence windows are carved
// from; a longer window gets a slab of its own.
const slabTIDs = 16384

// Occurrence returns the occurrence of Sets[i]: the ascending TIDs of
// the transactions that contain it, Sets[i].Support of them. Windows
// are carved from a few shared slabs; the bounded subsets of one
// closed set share its window. The root closure (the items in every
// transaction) occurs in every TID.
func (m *Mined) Occurrence(i int) []txdb.TID {
	sp := m.spans[i]
	return m.slabs[sp.slab][sp.lo:sp.hi:sp.hi]
}

// Closed reports whether Sets[i] equals the intersection of the
// transactions in its occurrence. Only a MaxLen bounded subset is not
// closed: it shares the occurrence of a longer closed set.
func (m *Mined) Closed(i int) bool { return m.closed[i] }

// Mine is MineClosed with every set's occurrence and closedness.
func Mine(db *txdb.DB, opts Options) *Mined {
	return mine(db, opts, runtime.GOMAXPROCS(0))
}

// mine is Mine on at most workers goroutines; one worker mines
// serially on the calling goroutine.
func mine(db *txdb.DB, opts Options, workers int) *Mined {
	if opts.MinSupport < 1 {
		opts.MinSupport = 1
	}
	if opts.MaxLen < 0 {
		opts.MaxLen = 0
	}
	if opts.MinDrugs < 0 {
		opts.MinDrugs = 0
	}
	sp := newSpace(db)
	w := newWorker(sp, opts)
	closure, buf, cands := w.root()
	w.mark(closure, 1)

	// Each root branch is one pool item; a worker's scratch is made on
	// its first branch, on its own goroutine.
	ws := make([]*worker, par.Workers(len(cands), workers))
	ws[0] = w
	par.Do(len(cands), workers, func(k, i int) {
		x := ws[k]
		if x == nil {
			x = newWorker(sp, opts)
			x.mark(closure, 1)
			ws[k] = x
		}
		x.process(closure, buf, cands[i].occ, cands[i].item, 1)
	})
	// A worker that started after the last branch was claimed made no
	// scratch.
	ws = slices.DeleteFunc(ws, func(x *worker) bool { return x == nil })

	// The result is copied out of the worker, not pointed into it, so
	// that the worker's scratch is garbage once mining returns.
	m := new(Mined)
	*m = w.res
	if len(ws) > 1 {
		sets := 0
		for _, x := range ws {
			sets += len(x.res.Sets)
		}
		*m = Mined{
			Sets:   make([]types.FrequentSet, 0, sets),
			spans:  make([]span, 0, sets),
			closed: make([]bool, 0, sets),
		}
		for _, x := range ws {
			m.Sets = append(m.Sets, x.res.Sets...)
			base := int32(len(m.slabs))
			m.slabs = append(m.slabs, x.res.slabs...)
			for _, sp := range x.res.spans {
				m.spans = append(m.spans, span{sp.slab + base, sp.lo, sp.hi})
			}
			m.closed = append(m.closed, x.res.closed...)
		}
	}
	// Sort an index and move the aligned slices by it.
	order := make([]int32, len(m.Sets))
	for i := range order {
		order[i] = int32(i)
	}
	order = par.SortFunc(order, func(a, b int32) int { return compareSets(&m.Sets[a], &m.Sets[b]) }, workers)
	par.Permute(order, func(i, j int) {
		m.Sets[i], m.Sets[j] = m.Sets[j], m.Sets[i]
		m.spans[i], m.spans[j] = m.spans[j], m.spans[i]
		m.closed[i], m.closed[j] = m.closed[j], m.closed[i]
	})
	return m
}

// compareSets is the result order: support descending, then length,
// then lexicographic. Distinct itemsets never compare equal, so it is a
// total order on a result and the sorted output is unique.
func compareSets(a, b *types.FrequentSet) int {
	if a.Support != b.Support {
		return cmp.Compare(b.Support, a.Support)
	}
	if len(a.Items) != len(b.Items) {
		return cmp.Compare(len(a.Items), len(b.Items))
	}
	return slices.Compare(a.Items, b.Items)
}

// space is the database in the miner's rank space: items renumbered
// drugs first, then reactions, each domain in dictionary-ID order, so
// a transaction sorted by ID stays sorted once its drugs are moved
// ahead of its reactions. Workers share it read-only.
type space struct {
	db     *txdb.DB
	items  []types.Item // every transaction's ranks, back to back
	offs   []int32      // transaction t is items[offs[t]:offs[t+1]]
	ids    []types.Item // rank → dictionary ID
	nDrugs types.Item   // ranks below nDrugs are drugs
}

func newSpace(db *txdb.DB) *space {
	dict := db.Dict()
	n := dict.Len()
	sp := &space{db: db, ids: make([]types.Item, n), nDrugs: types.Item(dict.DrugCount())}
	rank := make([]types.Item, n)
	drug, reac := types.Item(0), sp.nDrugs
	for it := range rank {
		if dict.IsDrug(types.Item(it)) {
			rank[it], drug = drug, drug+1
		} else {
			rank[it], reac = reac, reac+1
		}
		sp.ids[rank[it]] = types.Item(it)
	}
	total := 0
	for t := range txdb.TID(db.Len()) {
		total += len(db.Tx(t).Items)
	}
	sp.items = make([]types.Item, 0, total)
	sp.offs = make([]int32, db.Len()+1)
	for t := range txdb.TID(db.Len()) {
		tx := db.Tx(t).Items
		for _, it := range tx {
			if r := rank[it]; r < sp.nDrugs {
				sp.items = append(sp.items, r)
			}
		}
		for _, it := range tx {
			if r := rank[it]; r >= sp.nDrugs {
				sp.items = append(sp.items, r)
			}
		}
		sp.offs[t+1] = int32(len(sp.items))
	}
	return sp
}

// tx returns transaction t in rank space.
func (sp *space) tx(t int) []types.Item { return sp.items[sp.offs[t]:sp.offs[t+1]] }

// drugs counts the drugs of the sorted rank-space set c, which lead it.
func (sp *space) drugs(c types.Itemset) int {
	k := 0
	for k < len(c) && c[k] < sp.nDrugs {
		k++
	}
	return k
}

// candidate is an extension item of a node with its occurrences: the
// offsets, into the node's projected buffer, just past the item in
// each projected transaction that contains it.
type candidate struct {
	item types.Item
	occ  []int32
}

// level is the scratch of one recursion depth: the closed set, the
// projected buffer and occurrence block of the node being expanded
// there, and its candidates. Siblings run one after another, so they
// share it.
type level struct {
	closure types.Itemset
	buf     []types.Item
	occ     []int32
	cands   []candidate
}

// worker is one miner's scratch, in rank space, and its share of the
// result. counts and slot are indexed by rank and restored (to 0 and
// -1) after every scan; closed[it] is the depth at which it joined the
// closure of the current node's ancestry (0 = not in it). Each count
// scan collects the node's occurrence in scan, and the sets it emits
// get one window of the last of res.slabs, copied on first use and
// remembered in win.
type worker struct {
	sp      *space
	opts    Options
	counts  []int32
	slot    []int32
	closed  []int32
	touched []types.Item
	common  []types.Item
	extra   []types.Item
	levels  []level
	chunk   []types.Item
	scan    []txdb.TID
	win     span
	res     Mined
}

func newWorker(sp *space, opts Options) *worker {
	n := len(sp.ids)
	w := &worker{
		sp:     sp,
		opts:   opts,
		counts: make([]int32, n),
		slot:   make([]int32, n),
		closed: make([]int32, n),
	}
	for i := range w.slot {
		w.slot[i] = -1
	}
	return w
}

// terminator ends a projected transaction and names it.
func terminator(tid int) types.Item { return types.Item(-tid - 1) }

// root counts the whole database straight from its transactions,
// emits the closure of the empty set (the items present in every
// transaction) when non-empty, and projects the database onto the
// frequent items outside that closure. It returns the closure, the
// projected buffer and the root's candidates.
func (w *worker) root() (types.Itemset, []types.Item, []candidate) {
	n := len(w.sp.offs) - 1
	if n < w.opts.MinSupport {
		return nil, nil, nil
	}
	for _, it := range w.sp.items {
		w.count(it)
	}
	closure, cands, total := w.classify(nil, types.NoItem, n, 0)
	if len(closure) > 0 {
		w.scan = w.scan[:0]
		for tid := range txdb.TID(n) {
			w.scan = append(w.scan, tid)
		}
		w.emit(closure, n)
	}
	if len(cands) == 0 {
		w.reset()
		return closure, nil, nil
	}
	buf := w.prepare(0, cands, total, n)
	for tid := 0; tid < n; tid++ {
		start := len(buf)
		for _, it := range w.sp.tx(tid) {
			if k := w.slot[it]; k >= 0 {
				buf = append(buf, it)
				cands[k].occ = append(cands[k].occ, int32(len(buf)))
			}
		}
		if len(buf) > start {
			buf = append(buf, terminator(tid))
		}
	}
	w.finish(cands)
	return closure, buf, cands
}

// process expands the child of a node (closed set parent, projected
// buffer src) generated by adding core, whose transactions are the
// suffixes of src starting at occ, at depth d ≥ 1: it checks prefix
// preservation, counts the suffixes to get the closure and the
// candidates, emits the closure, projects its suffixes onto the
// candidates, and recurses. Under MinDrugs a reaction core whose
// parent holds too few drugs roots a subtree with the parent's drugs
// throughout, so it returns at once.
func (w *worker) process(parent types.Itemset, src []types.Item, occ []int32, core types.Item, d int) {
	if core >= w.sp.nDrugs && w.sp.drugs(parent) < w.opts.MinDrugs {
		return
	}
	if !w.prefixPreserved(src, occ, core) {
		return
	}
	n := len(occ)
	scan := w.scan[:0]
	for _, o := range occ {
		p := o
		for ; src[p] >= 0; p++ {
			w.count(src[p])
		}
		scan = append(scan, txdb.TID(-src[p]-1))
	}
	w.scan = scan
	closure, cands, total := w.classify(parent, core, n, d)
	w.emit(closure, n)
	if len(cands) == 0 {
		w.reset()
		return
	}
	buf := w.prepare(d, cands, total, n)
	for _, o := range occ {
		start := len(buf)
		p := o
		for ; src[p] >= 0; p++ {
			if k := w.slot[src[p]]; k >= 0 {
				buf = append(buf, src[p])
				cands[k].occ = append(cands[k].occ, int32(len(buf)))
			}
		}
		if len(buf) > start {
			buf = append(buf, src[p])
		}
	}
	w.finish(cands)

	// Recurse even past the length bound: the children of a long
	// closed set are longer still, but each can contribute its own
	// bounded subsets.
	w.mark(closure, int32(d+1))
	for _, c := range cands {
		w.process(closure, buf, c.occ, c.item, d+1)
	}
	w.unmark(closure, int32(d+1))
}

// prefixPreserved is LCM's prefix-preservation condition for the
// child generated by core: no item below core outside the parent's
// closure may lie in every transaction of the child, or the child's
// closed set is generated from a smaller core elsewhere. Items below
// the parent's own core are not in the projection, so the check
// intersects the original transactions, and stops once the
// intersection is empty.
func (w *worker) prefixPreserved(src []types.Item, occ []int32, core types.Item) bool {
	common := w.common[:0]
	for i, o := range occ {
		p := o
		for src[p] >= 0 {
			p++
		}
		items := w.sp.tx(int(-src[p] - 1))
		if i == 0 {
			for _, it := range items {
				if it >= core {
					break
				}
				if w.closed[it] == 0 {
					common = append(common, it)
				}
			}
		} else {
			common = intersectItems(common, items)
		}
		if len(common) == 0 {
			break
		}
	}
	w.common = common
	return len(common) == 0
}

// count adds one occurrence of it to the current scan.
func (w *worker) count(it types.Item) {
	if w.counts[it] == 0 {
		w.touched = append(w.touched, it)
	}
	w.counts[it]++
}

// classify splits the items the scan touched, over n transactions:
// those in all n join the closure, which is parent ∪ {core} ∪ them,
// held in depth d's scratch; the other frequent ones become depth d's
// candidates, whose counts sum to total.
func (w *worker) classify(parent types.Itemset, core types.Item, n, d int) (types.Itemset, []candidate, int) {
	for len(w.levels) <= d {
		w.levels = append(w.levels, level{})
	}
	extra := w.extra[:0]
	if core != types.NoItem {
		extra = append(extra, core)
	}
	cands := w.levels[d].cands[:0]
	total := 0
	for _, it := range w.touched {
		switch c := int(w.counts[it]); {
		case c == n:
			extra = append(extra, it)
		case c >= w.opts.MinSupport:
			cands = append(cands, candidate{item: it})
			total += c
		}
	}
	slices.Sort(extra)
	w.extra = extra
	lv := &w.levels[d]
	lv.cands = cands
	lv.closure = merge(lv.closure[:0], parent, extra)
	return lv.closure, cands, total
}

// prepare sizes depth d's buffer and occurrence block for a
// projection onto cands (total occurrences over n transactions),
// carves each candidate's occurrence list out of the block, and
// points slot at the candidates. It clears the scan's counts and
// returns the empty buffer, whose capacity the projection never
// exceeds.
func (w *worker) prepare(d int, cands []candidate, total, n int) []types.Item {
	lv := &w.levels[d]
	if cap(lv.buf) < total+n {
		lv.buf = make([]types.Item, 0, total+n)
	}
	if cap(lv.occ) < total {
		lv.occ = make([]int32, total)
	}
	lv.buf = lv.buf[:0]
	off := 0
	for k := range cands {
		c := int(w.counts[cands[k].item])
		cands[k].occ = lv.occ[off : off : off+c]
		w.slot[cands[k].item] = int32(k)
		off += c
	}
	w.reset()
	return lv.buf
}

// finish restores slot after a projection.
func (w *worker) finish(cands []candidate) {
	for _, c := range cands {
		w.slot[c.item] = -1
	}
}

// reset zeroes the counts of the items the last scan touched.
func (w *worker) reset() {
	for _, it := range w.touched {
		w.counts[it] = 0
	}
	w.touched = w.touched[:0]
}

// mark records the items of closure not yet in closed as joining at
// depth d; unmark undoes it.
func (w *worker) mark(closure types.Itemset, d int32) {
	for _, it := range closure {
		if w.closed[it] == 0 {
			w.closed[it] = d
		}
	}
}

func (w *worker) unmark(closure types.Itemset, d int32) {
	for _, it := range closure {
		if w.closed[it] == d {
			w.closed[it] = 0
		}
	}
}

// emit records the closed set c (rank space) of support n, whose
// occurrence the last scan collected, in dictionary IDs, if it is a
// target (see target). Under a length bound L a longer c stands for
// its L-subsets of equal support: those have no equal-support proper
// superset of at most L items, so they are closed within the bounded
// universe, though not closed (c is their closure) and occurring
// exactly where c does. Each such subset has c as its closure, so no
// subset is emitted twice. A subset holds no more drugs or reactions
// than c, so none is a target unless c is.
func (w *worker) emit(c types.Itemset, n int) {
	if !w.target(c) {
		return
	}
	w.win = span{-1, 0, 0}
	if w.opts.MaxLen == 0 || len(c) <= w.opts.MaxLen {
		w.add(c, n, true)
		return
	}
	w.boundedSubsets(c, n, make(types.Itemset, 0, w.opts.MaxLen), 0, nil)
}

// add appends the rank-space set c of support n to the result, with
// the current occurrence window.
func (w *worker) add(c types.Itemset, n int, closed bool) {
	r := &w.res
	r.Sets = append(r.Sets, types.FrequentSet{Items: w.ids(c), Support: n})
	if w.win.slab < 0 {
		last := len(r.slabs) - 1
		if last < 0 || cap(r.slabs[last])-len(r.slabs[last]) < n {
			r.slabs = append(r.slabs, make([]txdb.TID, 0, max(slabTIDs, n)))
			last++
		}
		slab := r.slabs[last]
		w.win = span{int32(last), int32(len(slab)), int32(len(slab) + n)}
		r.slabs[last] = append(slab, w.scan...)
	}
	r.spans = append(r.spans, w.win)
	r.closed = append(r.closed, closed)
}

// target reports whether the rank-space set c passes the MinDrugs
// filter: at least MinDrugs drugs and at least one reaction. Without
// the constraint every set passes.
func (w *worker) target(c types.Itemset) bool {
	if w.opts.MinDrugs == 0 {
		return true
	}
	k := w.sp.drugs(c)
	return k >= w.opts.MinDrugs && k < len(c)
}

// ids returns the rank-space set c in dictionary IDs, sorted, carved
// from the worker's chunk.
func (w *worker) ids(c types.Itemset) types.Itemset {
	out := w.itemset(len(c))
	for _, r := range c {
		out = append(out, w.sp.ids[r])
	}
	slices.Sort(out)
	return out
}

// boundedSubsets extends prefix (a subset of c drawn from c[from:]
// onwards, with tidset prefixTids; nil means every transaction) to
// MaxLen items and emits every completion whose support equals n,
// the support of c, and that is a target. The prefix's tidset only
// shrinks as items of c are added and never below c's, so once it
// holds n transactions it is c's tidset and needs no further
// intersection.
func (w *worker) boundedSubsets(c types.Itemset, n int, prefix types.Itemset, from int, prefixTids []txdb.TID) {
	if len(prefix) == w.opts.MaxLen {
		if len(prefixTids) == n && w.target(prefix) {
			w.add(prefix, n, false)
		}
		return
	}
	// Leave room for the items the bound still needs.
	last := len(c) - (w.opts.MaxLen - len(prefix))
	for i := from; i <= last; i++ {
		// Postings are by dictionary ID.
		tids := prefixTids
		switch {
		case tids == nil:
			tids = w.sp.db.Postings(w.sp.ids[c[i]])
		case len(tids) > n:
			tids = intersectTids(tids, w.sp.db.Postings(w.sp.ids[c[i]]))
		}
		w.boundedSubsets(c, n, append(prefix, c[i]), i+1, tids)
	}
}

// itemset returns an empty itemset with room for n items, carved from
// the worker's current chunk. Emitted sets live as long as the result,
// so chunks are never reused; each set's capacity is capped, so
// appending to one cannot overwrite its neighbour.
func (w *worker) itemset(n int) types.Itemset {
	if cap(w.chunk)-len(w.chunk) < n {
		w.chunk = make([]types.Item, 0, max(chunkItems, n))
	}
	k := len(w.chunk)
	w.chunk = w.chunk[:k+n]
	return w.chunk[k : k : k+n]
}

// chunkItems is the size of the chunks emitted itemsets are carved
// from.
const chunkItems = 4096

// merge appends the union of the sorted, disjoint itemsets a and b to
// out.
func merge(out, a, b types.Itemset) types.Itemset {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// intersectItems keeps the items of the sorted set a that also occur
// in the sorted set b, in place.
func intersectItems(a, b []types.Item) []types.Item {
	out := a[:0]
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) {
			break
		}
		if b[j] == v {
			out = append(out, v)
			j++
		}
	}
	return out
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
