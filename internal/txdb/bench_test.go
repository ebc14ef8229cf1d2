package txdb

import (
	"fmt"
	"math/rand"
	"testing"

	"maras/internal/types"
)

// BenchmarkTIDs measures exact support counting on a synthetic
// quarter-sized DB (12,288 transactions, Zipf-skewed item
// frequencies) for 3-item sets drawn from real transactions whose
// items are all sparse (below denseMin), mixed (one sparse item, two
// dense), long-mixed (the sparse item's list just under denseMin, the
// shape most linked targets of a mined quarter have), or all dense.
// Each class runs TIDs into a reused buffer and, as <class>-support,
// Support.
func BenchmarkTIDs(b *testing.B) {
	const n = 12_288
	rng := rand.New(rand.NewSource(1))
	dict := types.NewDictionary()
	const nItems = 2_000
	for i := 0; i < nItems; i++ {
		dict.Intern(fmt.Sprintf("i%d", i), types.DomainDrug)
	}
	zipf := rand.NewZipf(rng, 1.1, 4, nItems-1)
	db := New(dict)
	for r := 0; r < n; r++ {
		tx := make(types.Itemset, 4+rng.Intn(6))
		for j := range tx {
			tx[j] = types.Item(zipf.Uint64())
		}
		db.Add("", tx.Normalize())
	}
	db.Freeze()

	dm := denseMin(n)
	dense := func(it types.Item) bool { return db.ItemSupport(it) >= dm }
	denseCount := func(s types.Itemset) int {
		return boolInt(dense(s[0])) + boolInt(dense(s[1])) + boolInt(dense(s[2]))
	}
	// shortest is the support of the rarest item of s.
	shortest := func(s types.Itemset) int {
		return min(db.ItemSupport(s[0]), db.ItemSupport(s[1]), db.ItemSupport(s[2]))
	}
	classes := map[string]func(types.Itemset) bool{
		"sparse":     func(s types.Itemset) bool { return denseCount(s) == 0 },
		"mixed":      func(s types.Itemset) bool { return denseCount(s) == 2 },
		"long-mixed": func(s types.Itemset) bool { return denseCount(s) == 2 && shortest(s) >= dm*3/4 },
		"dense":      func(s types.Itemset) bool { return denseCount(s) == 3 },
	}
	for _, name := range []string{"sparse", "mixed", "long-mixed", "dense"} {
		var sets []types.Itemset
		for tid := range TID(db.Len()) {
			db.Tx(tid).Items.SubsetsOfSize(3, func(s types.Itemset) bool {
				if classes[name](s) && len(sets) < 512 {
					sets = append(sets, s.Clone())
				}
				return len(sets) < 512
			})
		}
		if len(sets) == 0 {
			b.Fatalf("no %s 3-item sets in the fixture", name)
		}
		b.Run(name, func(b *testing.B) {
			buf := make([]TID, 0, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = db.TIDs(sets[i%len(sets)], buf)
			}
		})
		b.Run(name+"-support", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				supportSink = db.Support(sets[i%len(sets)])
			}
		})
	}
}

// supportSink keeps the benchmarked Support calls from being optimized
// away.
var supportSink int

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
