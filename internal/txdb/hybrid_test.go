package txdb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"maras/internal/types"
)

// scanTIDs is the by-definition oracle for TIDs: a linear scan of every
// transaction.
func scanTIDs(db *DB, set types.Itemset) []TID {
	var out []TID
	for i := range db.Len() {
		if db.Tx(TID(i)).Items.ContainsAll(set) {
			out = append(out, TID(i))
		}
	}
	return out
}

// checkTIDs compares TIDs and Support of set against the oracle, TIDs
// once into a fresh buffer and once into buf, which may alias an
// earlier result. Support counts without a TID list (popcounts of
// ANDed bitmaps, or the filters run over a stack chunk), so it is held
// to the scan on its own. It returns the result written into buf for
// further reuse.
func checkTIDs(t *testing.T, db *DB, set types.Itemset, buf []TID) []TID {
	t.Helper()
	want := scanTIDs(db, set)
	if got := db.TIDs(set, nil); !slices.Equal(got, want) {
		t.Fatalf("TIDs(%v) = %v, scan %v", set, got, want)
	}
	if got := db.Support(set); got != len(want) {
		t.Fatalf("Support(%v) = %d, scan %d", set, got, len(want))
	}
	buf = db.TIDs(set, buf)
	if !slices.Equal(buf, want) {
		t.Fatalf("TIDs(%v) into a reused buffer = %v, scan %v", set, buf, want)
	}
	return buf
}

// hybridDB builds a random DB of n transactions whose items have
// exactly the given supports (each at least len(fullTIDs(n))). The
// transactions fullTIDs(n) hold every item, so long queries still
// match something, at both edges of a bitmap word and in the last
// (partial) word; the rest of each item's transactions are drawn at
// random.
func hybridDB(rng *rand.Rand, n int, supports []int) (*DB, []types.Item) {
	dict := types.NewDictionary()
	items := make([]types.Item, len(supports))
	members := make([][]types.Item, n)
	full := fullTIDs(n)
	var rest []int
	for r := 0; r < n; r++ {
		if !slices.Contains(full, r) {
			rest = append(rest, r)
		}
	}
	for i, k := range supports {
		dom := types.DomainDrug
		if i%2 == 1 {
			dom = types.DomainReaction
		}
		items[i] = dict.Intern(fmt.Sprintf("i%d", i), dom)
		for _, r := range full {
			members[r] = append(members[r], items[i])
		}
		for _, p := range rng.Perm(len(rest))[:k-len(full)] {
			members[rest[p]] = append(members[rest[p]], items[i])
		}
	}
	db := New(dict)
	for r, m := range members {
		db.Add(fmt.Sprintf("r%d", r), types.NewItemset(m...))
	}
	return db, items
}

// fullTIDs returns the transactions of an n-transaction hybridDB that
// hold every item: 0–2, the last bit of the first word and the first
// of the second (63, 64), and the last transaction.
func fullTIDs(n int) []int {
	full := []int{0, 1, 2}
	for _, r := range []int{63, 64, n - 1} {
		if r > full[len(full)-1] && r < n {
			full = append(full, r)
		}
	}
	return full
}

// TestTIDsMatchesScan is the differential test of the hybrid postings:
// on random DBs whose item supports straddle the bitmap rule (below,
// exactly at, and above denseMin), TIDs and Support agree with a
// linear scan, frozen and unfrozen, for the empty set, never-seen
// items, one-item sets, sets longer than the stack array (all-dense
// ones included), and reused buffers. The sizes include ones that are
// not a multiple of 64, so the all-dense AND reaches into a partial
// last word, and one (9001) whose sparse lists are longer than
// Support's stack chunk. It also asserts that every path ran: the
// all-dense AND, the bit probe and galloping.
func TestTIDsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ands, probes, gallops := 0, 0, 0
	for _, n := range []int{640, 1000, 333, 9001} {
		dm := denseMin(n)
		supports := []int{6, 7, max(6, dm/2), dm - 1, dm - 1, dm, dm, dm + 1, 2 * dm, n / 4, n / 2, n - 5, n}
		for len(supports) < maxStackItems+6 {
			supports = append(supports, dm+rng.Intn(n-dm))
		}
		db, items := hybridDB(rng, n, supports)

		// Unfrozen: no bitmaps, galloping only.
		queries := hybridQueries(rng, items)
		var buf []TID
		for _, q := range queries {
			buf = checkTIDs(t, db, q, buf)
		}
		for i := range db.postings {
			if db.postings[i].bits != nil {
				t.Fatalf("n=%d: unfrozen DB has a bitmap for item %d", n, i)
			}
		}

		db.Freeze()
		var denseItems []types.Item
		for i, it := range items {
			p := db.posting(it)
			if len(p.tids) != supports[i] {
				t.Fatalf("n=%d: item %d has support %d, built %d", n, i, len(p.tids), supports[i])
			}
			dense := supports[i] >= dm
			if (p.bits != nil) != dense {
				t.Fatalf("n=%d: item with support %d (denseMin %d): bitmap=%v", n, supports[i], dm, p.bits != nil)
			}
			if dense {
				denseItems = append(denseItems, it)
			}
		}
		if len(denseItems) <= maxStackItems {
			t.Fatalf("n=%d: %d dense items, want more than maxStackItems", n, len(denseItems))
		}
		// The fixture's point: the all-dense AND matches at both edges
		// of a word and in the last one.
		all := checkTIDs(t, db, types.NewItemset(denseItems...), nil)
		for _, r := range fullTIDs(n) {
			if !slices.Contains(all, TID(r)) {
				t.Fatalf("n=%d: all-dense query misses full transaction %d", n, r)
			}
		}
		queries = append(queries,
			types.NewItemset(denseItems[:2]...),
			types.NewItemset(denseItems[len(denseItems)-3:]...))
		for _, it := range denseItems {
			queries = append(queries, types.NewItemset(it))
		}
		buf = buf[:0]
		for _, q := range queries {
			buf = checkTIDs(t, db, q, buf)
			// Aliased buffer: a suffix of the previous result.
			if len(buf) > 1 {
				buf = checkTIDs(t, db, q, buf[1:])
			}
			// Count the paths of queries whose filters all ran (a
			// non-empty result means no early exit).
			if len(buf) == 0 || len(q) < 2 {
				continue
			}
			lens := make([]int, len(q))
			for i, it := range q {
				lens[i] = len(db.Postings(it))
			}
			sort.Ints(lens)
			if lens[0] >= dm {
				ands++
				continue
			}
			for _, l := range lens[1:] {
				if l >= dm {
					probes++
				} else {
					gallops++
				}
			}
		}
	}
	if ands == 0 || probes == 0 || gallops == 0 {
		t.Errorf("paths not all exercised: %d all-dense ANDs, %d bit probes, %d gallops", ands, probes, gallops)
	}
}

// hybridQueries draws random queries over items: the empty set, every
// singleton, sets with a never-seen item, sets longer than the stack
// array, and random small sets.
func hybridQueries(rng *rand.Rand, items []types.Item) []types.Itemset {
	ghost := types.Item(1 << 20)
	qs := []types.Itemset{
		nil,
		types.NewItemset(ghost),
		types.NewItemset(items[0], ghost),
		types.NewItemset(items...),
		types.NewItemset(items[:maxStackItems+1]...),
	}
	for _, it := range items {
		qs = append(qs, types.NewItemset(it))
	}
	for i := 0; i < 300; i++ {
		k := 2 + rng.Intn(4)
		q := make([]types.Item, k)
		for j := range q {
			q[j] = items[rng.Intn(len(items))]
		}
		qs = append(qs, types.NewItemset(q...))
	}
	return qs
}

// TestTIDsNoAllocs pins the stack-array ordering: with a buffer of
// enough capacity, TIDs on a set up to maxStackItems allocates nothing.
func TestTIDsNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 640
	supports := make([]int, maxStackItems)
	for i := range supports {
		supports[i] = 6 + rng.Intn(n-6)
	}
	db, items := hybridDB(rng, n, supports)
	db.Freeze()
	set := types.NewItemset(items...)
	buf := make([]TID, 0, n)
	if allocs := testing.AllocsPerRun(100, func() { buf = db.TIDs(set, buf) }); allocs != 0 {
		t.Errorf("TIDs allocated %.1f times per call, want 0", allocs)
	}
}

// TestSupportNoAllocs pins that Support builds no TID list: on the
// sparse (galloping), mixed (bit probe) and all-dense (popcount) paths,
// frozen and unfrozen (where lists run past the stack chunk), for sets
// up to maxStackItems items, it allocates nothing.
func TestSupportNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n := 640
	dm := denseMin(n)
	supports := []int{8, 10, dm - 1, dm, 3 * dm, 200, 320, 500, 600}
	for len(supports) < maxStackItems {
		supports = append(supports, dm+rng.Intn(n-dm))
	}
	db, items := hybridDB(rng, n, supports)
	sets := map[string]types.Itemset{
		"sparse": types.NewItemset(items[0], items[1], items[2]),
		"mixed":  types.NewItemset(items[2], items[5], items[7]),
		"dense":  types.NewItemset(items[3], items[6], items[8]),
		"wide":   types.NewItemset(items...),
	}
	for _, frozen := range []bool{false, true} {
		if frozen {
			db.Freeze()
		}
		for name, set := range sets {
			want := len(scanTIDs(db, set))
			got := 0
			allocs := testing.AllocsPerRun(100, func() { got = db.Support(set) })
			if got != want || allocs != 0 {
				t.Errorf("frozen=%v %s: Support = %d (scan %d), %.1f allocations per call, want 0",
					frozen, name, got, want, allocs)
			}
		}
	}
}

// FuzzTIDs decodes arbitrary bytes into a DB and a query and checks
// TIDs and Support against a linear scan, before and after Freeze and
// into a reused buffer. In db, a byte below 200 adds item b%50 to the
// current transaction and any other byte ends it, so the fuzzer
// controls every item's support and hence which items get bitmaps. In
// query, byte b names item b%64: items 50–63 never occur.
func FuzzTIDs(f *testing.F) {
	skewed := make([]byte, 0, 1200)
	for r := 0; r < 200; r++ {
		skewed = append(skewed, 0, byte(1+r%2), byte(3+r%7), byte(10+r%40), 255)
	}
	f.Add(skewed, []byte{0, 1})
	f.Add(skewed, []byte{0, 3, 12})
	f.Add(skewed, []byte{0, 1, 3, 10})
	f.Add(skewed, []byte{0, 63})
	f.Add(skewed, []byte{})
	f.Add([]byte{}, []byte{1})
	f.Add([]byte{1, 2, 255, 2, 3, 255, 1, 2, 3}, []byte{1, 2})

	// 130 transactions: two full bitmap words and two bits of a third.
	// Items 0–17 occur together in every fourth transaction and in 63,
	// 64 and 129, items 20–26 in one of every seven, and item 30 only
	// in 63, 64 and 129, below denseMin (5): an all-dense set longer
	// than the stack array, one-item dense sets, a dense pair and sets
	// whose one sparse list sits at both word edges and in the last word.
	var wide []byte
	for r := 0; r < 130; r++ {
		if r%4 == 0 || r == 63 || r == 64 || r == 129 {
			for it := byte(0); it < 18; it++ {
				wide = append(wide, it)
			}
		}
		if r == 63 || r == 64 || r == 129 {
			wide = append(wide, 30)
		}
		wide = append(wide, byte(20+r%7), 255)
	}
	all := make([]byte, 18)
	for i := range all {
		all[i] = byte(i)
	}
	f.Add(wide, all)
	f.Add(wide, []byte{5})
	f.Add(wide, []byte{0, 1})
	f.Add(wide, []byte{0, 9, 30})
	f.Add(wide, append(all, 30))
	f.Add(wide, []byte{21, 30})

	f.Fuzz(func(t *testing.T, data, query []byte) {
		dict := types.NewDictionary()
		for i := 0; i < 50; i++ {
			dict.Intern(fmt.Sprintf("i%d", i), types.DomainDrug)
		}
		db := New(dict)
		var tx types.Itemset
		for i, b := range data {
			if b < 200 {
				tx = append(tx, types.Item(b%50))
			}
			if b >= 200 || i == len(data)-1 {
				db.Add("", tx.Normalize())
				tx = tx[:0]
			}
		}
		set := make(types.Itemset, len(query))
		for i, b := range query {
			set[i] = types.Item(b % 64)
		}
		set = set.Normalize()

		buf := checkTIDs(t, db, set, nil)
		db.Freeze()
		buf = checkTIDs(t, db, set, buf)
		if len(buf) > 1 {
			checkTIDs(t, db, set, buf[1:])
		}
	})
}
