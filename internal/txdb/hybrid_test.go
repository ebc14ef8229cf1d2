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
	for i, tx := range db.Transactions() {
		if tx.Items.ContainsAll(set) {
			out = append(out, TID(i))
		}
	}
	return out
}

// checkTIDs compares TIDs and Support of set against the oracle, once
// into a fresh buffer and once into buf, which may alias an earlier
// result. It returns the result written into buf for further reuse.
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
// exactly the given supports. Transactions 0–2 hold every item, so
// long queries still match something; the rest of each item's
// transactions are drawn at random.
func hybridDB(rng *rand.Rand, n int, supports []int) (*DB, []types.Item) {
	dict := types.NewDictionary()
	items := make([]types.Item, len(supports))
	members := make([][]types.Item, n)
	for i, k := range supports {
		dom := types.DomainDrug
		if i%2 == 1 {
			dom = types.DomainReaction
		}
		items[i] = dict.Intern(fmt.Sprintf("i%d", i), dom)
		members[0] = append(members[0], items[i])
		members[1] = append(members[1], items[i])
		members[2] = append(members[2], items[i])
		for _, p := range rng.Perm(n - 3)[:k-3] {
			members[p+3] = append(members[p+3], items[i])
		}
	}
	db := New(dict)
	for r, m := range members {
		db.Add(fmt.Sprintf("r%d", r), types.NewItemset(m...))
	}
	return db, items
}

// TestTIDsMatchesScan is the differential test of the hybrid postings:
// on random DBs whose item supports straddle the bitmap rule (below,
// exactly at, and above denseMin), TIDs and Support agree with a
// linear scan, frozen and unfrozen, for the empty set, never-seen
// items, sets longer than the stack array, and reused buffers. It also
// asserts that both filter paths — bit probe and galloping — ran.
func TestTIDsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	probes, gallops := 0, 0
	for _, n := range []int{640, 1000, 333} {
		dm := denseMin(n)
		supports := []int{3, 4, dm / 2, dm - 1, dm - 1, dm, dm, dm + 1, 2 * dm, n / 4, n / 2, n - 5, n}
		for len(supports) < maxStackItems+6 {
			supports = append(supports, 3+rng.Intn(n-3))
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
		for i, it := range items {
			p := db.posting(it)
			if len(p.tids) != supports[i] {
				t.Fatalf("n=%d: item %d has support %d, built %d", n, i, len(p.tids), supports[i])
			}
			if dense := supports[i] >= dm; (p.bits != nil) != dense {
				t.Fatalf("n=%d: item with support %d (denseMin %d): bitmap=%v", n, supports[i], dm, p.bits != nil)
			}
		}
		buf = buf[:0]
		for _, q := range queries {
			buf = checkTIDs(t, db, q, buf)
			// Aliased buffer: a suffix of the previous result.
			if len(buf) > 1 {
				buf = checkTIDs(t, db, q, buf[1:])
			}
			// Count the filter paths of queries whose filters all ran
			// (a non-empty result means no early exit).
			if len(buf) == 0 || len(q) < 2 {
				continue
			}
			lens := make([]int, len(q))
			for i, it := range q {
				lens[i] = len(db.Postings(it))
			}
			sort.Ints(lens)
			for _, l := range lens[1:] {
				if l >= dm {
					probes++
				} else {
					gallops++
				}
			}
		}
	}
	if probes == 0 || gallops == 0 {
		t.Errorf("filter paths not both exercised: %d bit probes, %d gallops", probes, gallops)
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
		supports[i] = 3 + rng.Intn(n-3)
	}
	db, items := hybridDB(rng, n, supports)
	db.Freeze()
	set := types.NewItemset(items...)
	buf := make([]TID, 0, n)
	if allocs := testing.AllocsPerRun(100, func() { buf = db.TIDs(set, buf) }); allocs != 0 {
		t.Errorf("TIDs allocated %.1f times per call, want 0", allocs)
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
