package apriori

import (
	"fmt"
	"math/rand"
	"testing"

	"maras/internal/fpgrowth"
	"maras/internal/txdb"
	"maras/internal/types"
)

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

func asMap(sets []types.FrequentSet) map[string]int {
	m := make(map[string]int, len(sets))
	for _, fs := range sets {
		m[fs.Items.Key()] = fs.Support
	}
	return m
}

func TestAprioriKnownExample(t *testing.T) {
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
	got := asMap(Mine(db, Options{MinSupport: 2}))
	checks := map[string]int{
		"1":     6,
		"2":     7,
		"1,2":   4,
		"1,2,3": 2,
		"1,2,5": 2,
		"2,3":   4,
	}
	for k, want := range checks {
		if got[k] != want {
			t.Errorf("support[%s] = %d, want %d", k, got[k], want)
		}
	}
	if _, ok := got["4,5"]; ok {
		t.Error("infrequent {4,5} should not be mined")
	}
}

// Apriori and FP-Growth must agree exactly on random databases.
func TestAprioriMatchesFPGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 25; trial++ {
		nItems := 4 + rng.Intn(9)
		nTx := 10 + rng.Intn(50)
		txs := make([][]int, nTx)
		for i := range txs {
			for id := 0; id < nItems; id++ {
				if rng.Float64() < 0.3 {
					txs[i] = append(txs[i], id)
				}
			}
			if len(txs[i]) == 0 {
				txs[i] = []int{rng.Intn(nItems)}
			}
		}
		db := buildDB(t, txs)
		minsup := 1 + rng.Intn(4)

		ap := asMap(Mine(db, Options{MinSupport: minsup}))
		fp := asMap(fpgrowth.Mine(db, fpgrowth.Options{MinSupport: minsup}))
		if len(ap) != len(fp) {
			t.Fatalf("trial %d (minsup=%d): apriori %d sets, fpgrowth %d", trial, minsup, len(ap), len(fp))
		}
		for k, sup := range fp {
			if ap[k] != sup {
				t.Fatalf("trial %d: %s apriori=%d fpgrowth=%d", trial, k, ap[k], sup)
			}
		}
	}
}

func TestAprioriMaxLen(t *testing.T) {
	db := buildDB(t, [][]int{{1, 2, 3}, {1, 2, 3}})
	for _, fs := range Mine(db, Options{MinSupport: 1, MaxLen: 2}) {
		if len(fs.Items) > 2 {
			t.Errorf("MaxLen=2 emitted %v", fs.Items)
		}
	}
}

func TestAprioriEmpty(t *testing.T) {
	dict := types.NewDictionary()
	db := txdb.New(dict)
	db.Freeze()
	if got := Mine(db, Options{MinSupport: 1}); len(got) != 0 {
		t.Errorf("empty DB mined %d", len(got))
	}
}

func TestAprioriMinSupDefault(t *testing.T) {
	db := buildDB(t, [][]int{{1}})
	got := Mine(db, Options{MinSupport: 0})
	if len(got) != 1 {
		t.Errorf("MinSupport 0 should clamp to 1; mined %d", len(got))
	}
}
