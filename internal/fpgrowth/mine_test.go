package fpgrowth

import (
	"fmt"
	"math/rand"
	"testing"

	"maras/internal/apriori"
	"maras/internal/txdb"
	"maras/internal/types"
)

// buildDB constructs a DB from transactions given as item-ID slices.
func buildDB(t testing.TB, txs [][]int) *txdb.DB {
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
		dict.Intern(fmt.Sprintf("i%d", i), types.DomainDrug)
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

// bruteFrequent enumerates frequent itemsets by exhaustive subset
// enumeration over the item universe (exponential; tests only).
func bruteFrequent(db *txdb.DB, minsup, maxLen int) map[string]int {
	universe := map[types.Item]bool{}
	for t := range txdb.TID(db.Len()) {
		for _, it := range db.Tx(t).Items {
			universe[it] = true
		}
	}
	items := make(types.Itemset, 0, len(universe))
	for it := range universe {
		items = append(items, it)
	}
	items = items.Normalize()

	out := map[string]int{}
	n := len(items)
	for mask := 1; mask < 1<<uint(n); mask++ {
		var s types.Itemset
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				s = append(s, items[i])
			}
		}
		if maxLen > 0 && len(s) > maxLen {
			continue
		}
		sup := db.Support(s)
		if sup >= minsup {
			out[s.Key()] = sup
		}
	}
	return out
}

func TestMineKnownExample(t *testing.T) {
	// Classic textbook database.
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
	got := map[string]int{}
	for _, fs := range Mine(db, Options{MinSupport: 2}) {
		got[fs.Items.Key()] = fs.Support
	}
	want := bruteFrequent(db, 2, 0)
	if len(got) != len(want) {
		t.Fatalf("mined %d itemsets, brute force %d\n got=%v\nwant=%v", len(got), len(want), got, want)
	}
	for k, sup := range want {
		if got[k] != sup {
			t.Errorf("itemset %s: support %d, want %d", k, got[k], sup)
		}
	}
}

func TestMineMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		nItems := 3 + rng.Intn(8)
		nTx := 5 + rng.Intn(40)
		txs := make([][]int, nTx)
		for i := range txs {
			for id := 0; id < nItems; id++ {
				if rng.Float64() < 0.35 {
					txs[i] = append(txs[i], id)
				}
			}
			if len(txs[i]) == 0 {
				txs[i] = []int{rng.Intn(nItems)}
			}
		}
		db := buildDB(t, txs)
		minsup := 1 + rng.Intn(4)

		got := map[string]int{}
		for _, fs := range Mine(db, Options{MinSupport: minsup}) {
			if old, dup := got[fs.Items.Key()]; dup && old != fs.Support {
				t.Fatalf("trial %d: duplicate itemset %v with conflicting supports %d/%d",
					trial, fs.Items, old, fs.Support)
			}
			got[fs.Items.Key()] = fs.Support
		}
		want := bruteFrequent(db, minsup, 0)
		if len(got) != len(want) {
			t.Fatalf("trial %d (minsup=%d): mined %d itemsets, want %d", trial, minsup, len(got), len(want))
		}
		for k, sup := range want {
			if got[k] != sup {
				t.Fatalf("trial %d: itemset %s support %d, want %d", trial, k, got[k], sup)
			}
		}
	}
}

func TestMineMaxLen(t *testing.T) {
	db := buildDB(t, [][]int{
		{1, 2, 3, 4},
		{1, 2, 3, 4},
		{1, 2, 3, 4},
	})
	for _, fs := range Mine(db, Options{MinSupport: 1, MaxLen: 2}) {
		if len(fs.Items) > 2 {
			t.Errorf("MaxLen=2 emitted %v", fs.Items)
		}
	}
	n2 := len(Mine(db, Options{MinSupport: 1, MaxLen: 2}))
	if n2 != 4+6 { // C(4,1)+C(4,2)
		t.Errorf("MaxLen=2 mined %d sets, want 10", n2)
	}
}

// A database whose FP-tree is one deep path: every transaction holds
// the same 22 items. Each bounded level must be mined in full — all
// C(22,k) sets of k items — and agree with Apriori set for set.
func TestMineDeepSinglePath(t *testing.T) {
	const n = 22
	tx := make([]int, n)
	for i := range tx {
		tx[i] = i
	}
	db := buildDB(t, [][]int{tx, tx})
	want := 0
	for maxLen, level := 1, 1; maxLen <= 3; maxLen++ {
		level = level * (n - maxLen + 1) / maxLen // C(n, maxLen)
		want += level
		got := Mine(db, Options{MinSupport: 1, MaxLen: maxLen})
		if len(got) != want {
			t.Fatalf("MaxLen=%d: mined %d sets, want %d", maxLen, len(got), want)
		}
		ref := apriori.Mine(db, apriori.Options{MinSupport: 1, MaxLen: maxLen})
		if len(ref) != want {
			t.Fatalf("MaxLen=%d: apriori mined %d sets, want %d", maxLen, len(ref), want)
		}
		sups := make(map[string]int, len(got))
		for _, fs := range got {
			sups[fs.Items.Key()] = fs.Support
		}
		for _, fs := range ref {
			if sup, ok := sups[fs.Items.Key()]; !ok || sup != fs.Support {
				t.Fatalf("MaxLen=%d: %v has support %d (mined %v), apriori %d",
					maxLen, fs.Items, sup, ok, fs.Support)
			}
		}
	}
}

func TestMineEmptyDB(t *testing.T) {
	dict := types.NewDictionary()
	db := txdb.New(dict)
	db.Freeze()
	if got := Mine(db, Options{MinSupport: 1}); len(got) != 0 {
		t.Errorf("empty DB mined %d sets", len(got))
	}
}

func TestMineMinSupportFiltering(t *testing.T) {
	db := buildDB(t, [][]int{
		{1}, {1}, {1}, {2},
	})
	sets := Mine(db, Options{MinSupport: 2})
	if len(sets) != 1 || sets[0].Items.Key() != "1" || sets[0].Support != 3 {
		t.Errorf("got %v, want only {1}:3", sets)
	}
}

// Property: every mined support equals the exact posting-list
// support — the miner and the query engine must agree.
func TestMinedSupportsMatchQueryEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		nItems := 5 + rng.Intn(6)
		nTx := 20 + rng.Intn(50)
		txs := make([][]int, nTx)
		for i := range txs {
			for id := 0; id < nItems; id++ {
				if rng.Float64() < 0.35 {
					txs[i] = append(txs[i], id)
				}
			}
			if len(txs[i]) == 0 {
				txs[i] = []int{rng.Intn(nItems)}
			}
		}
		db := buildDB(t, txs)
		for _, fs := range Mine(db, Options{MinSupport: 2}) {
			if got := db.Support(fs.Items); got != fs.Support {
				t.Fatalf("trial %d: mined support %d for %v, query engine says %d",
					trial, fs.Support, fs.Items, got)
			}
		}
	}
}
