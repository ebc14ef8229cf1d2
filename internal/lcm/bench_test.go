package lcm

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"maras/internal/txdb"
	"maras/internal/types"
)

// benchDB is a fixed synthetic database shaped like a report quarter:
// 8,000 transactions of 2–13 distinct items drawn from 1,500 items of
// Zipf-distributed popularity. Odd items are reactions and even ones
// drugs, so the miner's drugs-first rank order interleaves with the
// dictionary's ID order.
func benchDB(b *testing.B) *txdb.DB {
	b.Helper()
	const nItems, nTx = 1500, 8000
	rng := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(rng, 1.15, 2, nItems-1)
	dict := types.NewDictionary()
	for i := 0; i < nItems; i++ {
		dom := types.DomainDrug
		if i%2 == 1 {
			dom = types.DomainReaction
		}
		dict.Intern(fmt.Sprintf("i%d", i), dom)
	}
	db := txdb.New(dict)
	for r := 0; r < nTx; r++ {
		items := make(types.Itemset, 0, 13)
		for n := 2 + rng.Intn(12); n > 0; n-- {
			items = append(items, types.Item(zipf.Uint64()))
		}
		db.Add(fmt.Sprintf("r%d", r), items.Normalize())
	}
	db.Freeze()
	return db
}

// BenchmarkMineClosed mines benchDB serially and on GOMAXPROCS
// workers, under the pipeline's length cap, for every closed set and
// (targets) for the pipeline's rule targets only, at least two drugs
// and one reaction, each with its occurrence, as the pipeline mines
// them:
//
//	go test -run '^$' -bench MineClosed -benchmem ./internal/lcm
func BenchmarkMineClosed(b *testing.B) {
	db := benchDB(b)
	procs := runtime.GOMAXPROCS(0)
	for _, bc := range []struct {
		name     string
		workers  int
		minDrugs int
	}{{"serial", 1, 0}, {"parallel", procs, 0}, {"targets", procs, 2}} {
		opts := Options{MinSupport: 4, MaxLen: 10, MinDrugs: bc.minDrugs}
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(mine(db, opts, bc.workers).Sets) == 0 {
					b.Fatal("nothing mined")
				}
			}
		})
	}
}
