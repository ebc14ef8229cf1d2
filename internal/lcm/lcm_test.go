package lcm

import (
	"fmt"
	"slices"
	"testing"

	"maras/internal/txdb"
	"maras/internal/types"
)

func buildDB(t testing.TB, txs [][]int) *txdb.DB {
	t.Helper()
	return buildSplitDB(t, txs, 0)
}

// buildSplitDB builds a database over items 0..max(txs), interning
// item i as a reaction when bit i of reactions is set and as a drug
// otherwise, so the miner's drugs-first rank order differs from the
// dictionary's ID order.
func buildSplitDB(t testing.TB, txs [][]int, reactions uint32) *txdb.DB {
	t.Helper()
	dict := types.NewDictionary()
	maxID := 0
	for _, tx := range txs {
		for _, id := range tx {
			if id > maxID {
				maxID = id
			}
		}
	}
	for i := 0; i <= maxID; i++ {
		dom := types.DomainDrug
		if i < 32 && reactions&(1<<i) != 0 {
			dom = types.DomainReaction
		}
		dict.Intern(fmt.Sprintf("i%d", i), dom)
	}
	db := txdb.New(dict)
	for r, tx := range txs {
		items := make(types.Itemset, 0, len(tx))
		for _, id := range tx {
			items = append(items, types.Item(id))
		}
		db.Add(fmt.Sprintf("r%d", r), items.Normalize())
	}
	db.Freeze()
	return db
}

func asMap(sets []types.FrequentSet) map[string]int {
	m := make(map[string]int, len(sets))
	for _, fs := range sets {
		m[fs.Items.Key()] = fs.Support
	}
	return m
}

func TestMineClosedKnownExample(t *testing.T) {
	db := buildDB(t, [][]int{
		{1, 2, 5},
		{2, 4},
		{2, 3},
		{1, 2, 4},
		{1, 3},
		{2, 3},
		{1, 3},
		{1, 2, 3, 5},
		{1, 2, 3},
	})
	// The closed sets of support ≥ 2, worked out by hand, in result
	// order: {4} closes to {2,4} and {5} to {1,2,5}.
	want := []types.FrequentSet{
		{Items: types.NewItemset(2), Support: 7},
		{Items: types.NewItemset(1), Support: 6},
		{Items: types.NewItemset(3), Support: 6},
		{Items: types.NewItemset(1, 2), Support: 4},
		{Items: types.NewItemset(1, 3), Support: 4},
		{Items: types.NewItemset(2, 3), Support: 4},
		{Items: types.NewItemset(2, 4), Support: 2},
		{Items: types.NewItemset(1, 2, 3), Support: 2},
		{Items: types.NewItemset(1, 2, 5), Support: 2},
	}
	got := MineClosed(db, Options{MinSupport: 2})
	if len(got) != len(want) {
		t.Fatalf("mined %d closed sets, want %d\ngot=%v\nwant=%v", len(got), len(want), got, want)
	}
	for i := range want {
		if !got[i].Items.Equal(want[i].Items) || got[i].Support != want[i].Support {
			t.Errorf("set %d: mined %v/%d, want %v/%d", i, got[i].Items, got[i].Support, want[i].Items, want[i].Support)
		}
	}
}

// Dense data: every transaction shares a common prefix — the closure
// of the empty set is non-empty and must be emitted once.
func TestMineClosedCommonItems(t *testing.T) {
	db := buildDB(t, [][]int{
		{0, 1, 2},
		{0, 1, 3},
		{0, 1, 4},
	})
	sets := MineClosed(db, Options{MinSupport: 1})
	got := asMap(sets)
	if got["0,1"] != 3 {
		t.Errorf("common pair {0,1} support = %d, want 3 (got %v)", got["0,1"], got)
	}
	// No duplicates.
	if len(got) != len(sets) {
		t.Error("duplicate closed sets emitted")
	}
}

func TestMineClosedEmptyAndDegenerate(t *testing.T) {
	dict := types.NewDictionary()
	db := txdb.New(dict)
	db.Freeze()
	if got := MineClosed(db, Options{MinSupport: 1}); len(got) != 0 {
		t.Errorf("empty DB mined %d", len(got))
	}
	one := buildDB(t, [][]int{{7}})
	sets := MineClosed(one, Options{MinSupport: 1})
	if len(sets) != 1 || sets[0].Items.Key() != "7" {
		t.Errorf("single-item DB = %v", sets)
	}
}

// A database with fewer transactions than the minimum support has no
// frequent itemset, not even the root closure.
func TestMineClosedRootBelowMinSupport(t *testing.T) {
	db := buildDB(t, [][]int{{1, 2}, {1, 2}})
	if got := MineClosed(db, Options{MinSupport: 3}); len(got) != 0 {
		t.Errorf("mined %v below minimum support", got)
	}
}

func TestMineClosedOrderingDeterministic(t *testing.T) {
	db := buildDB(t, [][]int{
		{1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3},
	})
	a := MineClosed(db, Options{MinSupport: 1})
	b := MineClosed(db, Options{MinSupport: 1})
	for i := range a {
		if !a[i].Items.Equal(b[i].Items) || a[i].Support != b[i].Support {
			t.Fatal("nondeterministic ordering")
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Support > a[i-1].Support {
			t.Fatal("not sorted by support desc")
		}
	}
}

// The root closure, the items present in every transaction, occurs
// in every TID and is closed; a bounded subset of it shares that
// occurrence and is not.
func TestMineRootClosureOccursEverywhere(t *testing.T) {
	db := buildDB(t, [][]int{{0, 1, 2}, {0, 1, 2, 3}, {0, 1, 2}, {0, 1, 2, 4}})
	all := []txdb.TID{0, 1, 2, 3}
	for _, workers := range []int{1, 4} {
		m := mine(db, Options{MinSupport: 1}, workers)
		if len(m.Sets) == 0 || m.Sets[0].Items.Key() != "0,1,2" || !slices.Equal(m.Occurrence(0), all) || !m.Closed(0) {
			t.Fatalf("workers=%d: first set %v occurs in %v (closed %v), want the root closure 0,1,2 in %v, closed",
				workers, m.Sets[0], m.Occurrence(0), m.Closed(0), all)
		}
		b := mine(db, Options{MinSupport: 1, MaxLen: 2}, workers)
		for i, fs := range b.Sets {
			if fs.Support == len(all) && (!slices.Equal(b.Occurrence(i), all) || b.Closed(i)) {
				t.Fatalf("workers=%d: bounded subset %v occurs in %v (closed %v), want %v, not closed",
					workers, fs.Items, b.Occurrence(i), b.Closed(i), all)
			}
		}
	}
}

func TestIntersectTids(t *testing.T) {
	a := []txdb.TID{1, 2, 4, 8}
	b := []txdb.TID{2, 3, 4, 9}
	got := intersectTids(a, b)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("intersect = %v", got)
	}
	if len(intersectTids(a, nil)) != 0 {
		t.Error("intersect with empty should be empty")
	}
}
