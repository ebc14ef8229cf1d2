// Package txdb holds the transaction database the miners run against:
// one transaction per cleaned adverse-event report, each the union of
// the report's drug items and reaction items. The horizontal layout is
// compressed sparse rows: the items of every transaction lie in one
// slab with offsets, so a DB holds no slice header per transaction.
// Alongside it Freeze builds a vertical one: per-item posting lists
// (sorted transaction-ID lists, windows of one TID slab counted to
// size in one pass), which give exact support counts for arbitrary
// itemsets by k-way intersection — the primitive that rule scoring,
// contextual-rule scoring (package mcac/rank) and support-type
// classification rely on.
//
// The postings are hybrid. Freeze builds a dense membership bitmap
// beside the posting list of every item that occurs in at least N/32
// of the N transactions; at that length the bitmap (N/8 bytes) is no
// larger than the list (4 bytes per TID). Items are taken
// shortest-list first, so if the shortest has a bitmap, every item of
// the set has one. Such an all-dense set is intersected word-parallel
// (MAFIA's vertical bitmaps): TIDs ANDs the bitmaps 64 transactions
// per word and appends the set bits in order, Support popcounts the
// same AND. Otherwise TIDs filters the shortest list against each
// further item, with a branch-free bit probe per TID (every TID is
// written, the write position advances by the probed bit) when the
// item has a bitmap and with galloping search when it has not, and
// Support runs the same filters over stack chunks of the list and
// counts what survives: it builds no list, and for sets of up to
// maxStackItems items allocates nothing. The rule is a fixed size bound, not a
// tunable: the items it selects are the frequent ones, whose lists
// are far longer than the rare itemsets they are intersected down to.
package txdb

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"maras/internal/types"
)

// TID identifies a transaction (a report) within one DB, densely from 0.
type TID int32

// Transaction is one report abstracted to its itemset. Items is always
// normalized (sorted strictly increasing).
type Transaction struct {
	// ReportID is the originating report's external identifier
	// (FAERS primaryid); it lets signals link back to raw reports.
	ReportID string
	Items    types.Itemset
}

// posting is one item's vertical entry: its sorted TID list and, for
// items dense enough after Freeze, a bitmap with bit t set iff
// transaction t contains the item. Both are capped windows of one
// slab the DB shares among all items.
type posting struct {
	tids []TID
	bits []uint64
}

// DB is an immutable-after-Freeze transaction database in CSR form:
// the items of every transaction lie in one slab, transaction t at
// items[offs[t]:offs[t+1]], and the posting lists, built by Freeze,
// in another.
type DB struct {
	dict     *types.Dictionary
	items    []types.Item
	offs     []int32 // len Len()+1
	ids      []string
	span     int       // one past the largest item any transaction holds
	postings []posting // indexed by item, over the first indexed transactions
	indexed  int
	frozen   bool
}

// New returns an empty DB over dict.
func New(dict *types.Dictionary) *DB { return NewSized(dict, 0, 0) }

// NewSized returns an empty DB over dict with room for txs
// transactions holding items items in all. The sizes are hints: a DB
// outgrowing them grows as New's does.
func NewSized(dict *types.Dictionary, txs, items int) *DB {
	return &DB{
		dict:  dict,
		items: make([]types.Item, 0, items),
		offs:  make([]int32, 1, txs+1),
		ids:   make([]string, 0, txs),
	}
}

// Dict returns the dictionary the DB encodes against.
func (db *DB) Dict() *types.Dictionary { return db.dict }

// Add appends a transaction. The itemset is copied into the DB and
// normalized there. Add panics after Freeze: the posting lists are
// shared read-only by then and would no longer count the transaction.
func (db *DB) Add(reportID string, items types.Itemset) TID {
	if db.frozen {
		panic("txdb: Add after Freeze")
	}
	lo := len(db.items)
	db.items = append(db.items, items...)
	tx := types.Itemset(db.items[lo:]).Normalize()
	db.items = db.items[:lo+len(tx)]
	if len(tx) > 0 {
		db.span = max(db.span, int(tx[len(tx)-1])+1)
	}
	db.offs = append(db.offs, int32(len(db.items)))
	db.ids = append(db.ids, reportID)
	return TID(len(db.ids) - 1)
}

// Freeze marks the DB read-only and builds its postings, bitmaps
// included.
func (db *DB) Freeze() {
	if !db.frozen {
		db.build(true)
		db.frozen = true
	}
}

// index returns the posting entries, indexed by item. A DB not yet
// frozen builds them, without bitmaps, whenever transactions were
// added since the last build, so it can be queried while it loads; a
// frozen DB only reads them, so its readers may share it.
func (db *DB) index() []posting {
	if !db.frozen && db.indexed != db.Len() {
		db.build(false)
	}
	return db.postings
}

// build makes the postings of every transaction: it counts each item's
// occurrences in one pass over the slab and fills one exact-size TID
// slab in a second (TIDs ascend, so every list comes out sorted). With
// bitmaps it gives the dense items (see denseMin) bitmaps carved from
// one word slab.
func (db *DB) build(bitmaps bool) {
	db.indexed = db.Len()
	// next[i] starts as where item i's list begins in tids and advances
	// as the list fills, so afterwards it is where the list ends.
	next := make([]int32, max(db.dict.Len(), db.span)+1)
	for _, it := range db.items {
		next[it+1]++
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	tids := make([]TID, len(db.items))
	for t := range db.ids {
		for _, it := range db.items[db.offs[t]:db.offs[t+1]] {
			tids[next[it]] = TID(t)
			next[it]++
		}
	}
	n := db.Len()
	words, minLen := (n+63)/64, denseMin(n)
	db.postings = make([]posting, len(next)-1)
	dense := 0
	for i := range db.postings {
		lo, hi := int32(0), next[i]
		if i > 0 {
			lo = next[i-1]
		}
		if lo == hi {
			continue
		}
		db.postings[i].tids = tids[lo:hi:hi]
		if int(hi-lo) >= minLen {
			dense++
		}
	}
	if !bitmaps {
		return
	}
	slab := make([]uint64, dense*words)
	for i := range db.postings {
		p := &db.postings[i]
		if len(p.tids) == 0 || len(p.tids) < minLen {
			continue
		}
		p.bits, slab = slab[:words:words], slab[words:]
		for _, t := range p.tids {
			p.bits[t>>6] |= 1 << (uint(t) & 63)
		}
	}
}

// denseMin is the posting length from which an item of a DB with n
// transactions gets a bitmap: ⌈n/32⌉, where the bitmap's n/8 bytes
// first fit within the list's 4 bytes per TID.
func denseMin(n int) int { return (n + 31) / 32 }

// Len returns the number of transactions.
func (db *DB) Len() int { return len(db.ids) }

// Tx returns the transaction with the given ID. Its Items are a window
// of the DB's slab: callers must not mutate them.
func (db *DB) Tx(tid TID) Transaction {
	lo, hi := db.offs[tid], db.offs[tid+1]
	return Transaction{ReportID: db.ids[tid], Items: db.items[lo:hi:hi]}
}

// posting returns the vertical entry of it, nil if it is beyond every
// item the DB has seen.
func (db *DB) posting(it types.Item) *posting {
	ps := db.index()
	if uint(it) >= uint(len(ps)) {
		return nil
	}
	return &ps[it]
}

// ItemSupport returns the number of transactions containing it.
func (db *DB) ItemSupport(it types.Item) int { return len(db.Postings(it)) }

// Postings returns the sorted TID list for it; callers must not
// mutate it. Nil means the item never occurs.
func (db *DB) Postings(it types.Item) []TID {
	if p := db.posting(it); p != nil {
		return p.tids
	}
	return nil
}

// Support returns |{t : set ⊆ t}|, the absolute support of set
// (Formula 2.1), counted exactly without building a TID list: an
// all-dense set popcounts the AND of its bitmaps; otherwise the
// shortest list is filtered as TIDs does, a stack-sized chunk at a
// time, and the survivors are counted. The empty set is contained in
// every transaction.
func (db *DB) Support(set types.Itemset) int {
	if len(set) == 0 {
		return db.Len()
	}
	var stack [maxStackItems]*posting
	lists := db.order(set, stack[:0])
	switch {
	case len(lists) == 0:
		return 0
	case len(lists) == 1:
		return len(lists[0].tids)
	case lists[0].bits != nil:
		return countAnd(lists)
	}
	var chunk [supportChunk]TID
	n := 0
	for src := lists[0].tids; len(src) > 0; {
		c := min(len(src), len(chunk))
		n += len(filter(chunk[:c], src[:c], lists[1:]))
		src = src[c:]
	}
	return n
}

// supportChunk is how many TIDs of the shortest list Support filters
// at a time, in a stack buffer (1 KiB) that Go zeroes on every call. A
// longer list takes several chunks, each of which gallops the sparse
// items again from the start of their lists, a logarithmic cost.
const supportChunk = 256

// maxStackItems bounds the itemsets whose posting entries TIDs and
// Support order in a stack array; longer sets (beyond the miners'
// MaxItems) fall back to the heap.
const maxStackItems = 16

// TIDs returns the sorted transaction IDs containing every item of
// set, appended into buf (reset first) to let hot callers avoid
// allocation. For the empty set it returns all TIDs.
func (db *DB) TIDs(set types.Itemset, buf []TID) []TID {
	buf = buf[:0]
	if len(set) == 0 {
		for i := range db.ids {
			buf = append(buf, TID(i))
		}
		return buf
	}
	var stack [maxStackItems]*posting
	lists := db.order(set, stack[:0])
	switch {
	case len(lists) == 0:
		return buf
	case len(lists) == 1:
		return append(buf, lists[0].tids...)
	case lists[0].bits != nil:
		return appendAnd(buf, lists)
	}
	src := lists[0].tids
	return filter(slices.Grow(buf, len(src))[:len(src)], src, lists[1:])
}

// order returns the posting entries of set's items shortest-first,
// appended to lists, or none if an item never occurs. The result is
// bounded by the shortest list and every further item only filters
// it; if the shortest has a bitmap, so has every other.
func (db *DB) order(set types.Itemset, lists []*posting) []*posting {
	for _, it := range set {
		p := db.posting(it)
		if p == nil || len(p.tids) == 0 {
			return nil
		}
		j := len(lists)
		lists = append(lists, p)
		for ; j > 0 && len(lists[j-1].tids) > len(p.tids); j-- {
			lists[j] = lists[j-1]
		}
		lists[j] = p
	}
	return lists
}

// countAnd returns the number of bits set in the AND of the bitmaps of
// lists.
func countAnd(lists []*posting) int {
	var acc [andBlock]uint64
	n := 0
	for lo := 0; lo < len(lists[0].bits); lo += andBlock {
		for _, x := range andWords(&acc, lists, lo) {
			n += bits.OnesCount64(x)
		}
	}
	return n
}

// appendAnd appends to buf, in order, the TIDs set in the AND of the
// bitmaps of lists. Bits past the last transaction are never set.
func appendAnd(buf []TID, lists []*posting) []TID {
	var acc [andBlock]uint64
	for lo := 0; lo < len(lists[0].bits); lo += andBlock {
		for i, x := range andWords(&acc, lists, lo) {
			for base := TID((lo + i) << 6); x != 0; x &= x - 1 {
				buf = append(buf, base+TID(bits.TrailingZeros64(x)))
			}
		}
	}
	return buf
}

// andBlock is how many bitmap words andWords ANDs per pass over the
// lists.
const andBlock = 64

// andWords writes into acc the AND of the bitmaps of lists over the
// words from lo, up to andBlock of them, and returns the words written.
// It ANDs one list at a time into the block, so each inner loop runs
// over two plain slices.
func andWords(acc *[andBlock]uint64, lists []*posting, lo int) []uint64 {
	a := acc[:copy(acc[:], lists[0].bits[lo:])]
	for _, p := range lists[1:] {
		b := p.bits[lo : lo+len(a)]
		for i := range a {
			a[i] &= b[i]
		}
	}
	return a
}

// filter writes into dst the TIDs of src that every entry of rest
// holds: one bit probe per TID for a bitmapped entry, galloping search
// otherwise. dst must have len(src) elements and may be src itself;
// after the first entry the filtering runs in place.
func filter(dst, src []TID, rest []*posting) []TID {
	for _, p := range rest {
		if p.bits != nil {
			dst = probe(dst, src, p.bits)
		} else {
			dst = intersect(dst, src, p.tids)
		}
		if len(dst) == 0 {
			break
		}
		src = dst
	}
	return dst
}

// probe keeps the TIDs of src whose bit is set in bitmap, written to the
// front of dst (len(dst) >= len(src); dst may alias src). It is
// branch-free: every TID is written, and the write position advances
// by the probed bit.
func probe(dst, src []TID, bitmap []uint64) []TID {
	k := 0
	for _, v := range src {
		dst[k] = v
		k += int(bitmap[v>>6] >> (uint(v) & 63) & 1)
	}
	return dst[:k]
}

// intersect keeps the TIDs of src (sorted) that occur in l (sorted),
// written to the front of dst (cap(dst) >= len(src); dst may alias
// src), using galloping search over l.
func intersect(dst, src, l []TID) []TID {
	out := dst[:0]
	j := 0
	for _, v := range src {
		// Gallop forward in l to the first element >= v.
		j = gallop(l, j, v)
		if j >= len(l) {
			break
		}
		if l[j] == v {
			out = append(out, v)
			j++
		}
	}
	return out
}

// gallop returns the smallest index i >= start with l[i] >= v, by
// exponential probing followed by binary search within the bracket.
func gallop(l []TID, start int, v TID) int {
	if start >= len(l) || l[start] >= v {
		return start
	}
	step := 1
	lo := start
	hi := start + step
	for hi < len(l) && l[hi] < v {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > len(l) {
		hi = len(l)
	}
	// Invariant: l[lo] < v, and (hi == len(l) or l[hi] >= v).
	return lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return l[lo+1+i] >= v })
}

// Stats summarizes a DB the way Table 5.1 of the paper does.
type Stats struct {
	Reports   int // transactions
	Drugs     int // distinct drug items occurring at least once
	Reactions int // distinct reaction items occurring at least once
	AvgDrugs  float64
	AvgReacs  float64
}

// Stats scans the DB and reports Table 5.1-style dataset statistics.
func (db *DB) Stats() Stats {
	var s Stats
	s.Reports = db.Len()
	var totDrug, totReac int
	for i, p := range db.index() {
		n := len(p.tids)
		if n == 0 {
			continue
		}
		if db.dict.IsDrug(types.Item(i)) {
			s.Drugs++
			totDrug += n
		} else {
			s.Reactions++
			totReac += n
		}
	}
	if s.Reports > 0 {
		s.AvgDrugs = float64(totDrug) / float64(s.Reports)
		s.AvgReacs = float64(totReac) / float64(s.Reports)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("reports=%d drugs=%d reactions=%d avgDrugs=%.2f avgReacs=%.2f",
		s.Reports, s.Drugs, s.Reactions, s.AvgDrugs, s.AvgReacs)
}
