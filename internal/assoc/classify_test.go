package assoc

import (
	"math/rand"
	"testing"

	"maras/internal/txdb"
	"maras/internal/types"
)

// classifyByDefinition is the oracle for support types: Definition
// 3.3.1 scans every transaction for one equal to complete, and
// Definition 3.3.2 scans every pair of transactions for one whose
// intersection equals complete.
func classifyByDefinition(db *txdb.DB, complete types.Itemset) SupportType {
	txs := transactions(db)
	for _, tx := range txs {
		if tx.Items.Equal(complete) {
			return Explicit
		}
	}
	for i := range txs {
		for j := i + 1; j < len(txs); j++ {
			if txs[i].Items.Intersect(txs[j].Items).Equal(complete) {
				return Implicit
			}
		}
	}
	return Unsupported
}

// transactions lists every transaction of db in TID order.
func transactions(db *txdb.DB) []txdb.Transaction {
	txs := make([]txdb.Transaction, db.Len())
	for t := range txs {
		txs[t] = db.Tx(txdb.TID(t))
	}
	return txs
}

// Property: on random databases, ClassifyTIDs over the set's own TIDs
// (and Classify) agree with the by-definition oracle. Queries are
// whole transactions, intersections of transaction pairs and random
// subsets of pair intersections and of transactions, so every support
// type occurs, and some unsupported sets occur in several transactions. ClassifyTIDs
// runs once per ranked signal on a tidset the caller already holds, so
// the first query of each type also checks that it allocates nothing.
func TestClassifyTIDsMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	seen := map[SupportType]int{}
	pairsChecked := 0 // unsupported queries whose pair scan decided the type
	for trial := 0; trial < 15; trial++ {
		db, _, _ := randomDB(rng, 5, 5, 30+rng.Intn(30), 0.35)
		txs := transactions(db)
		for q := 0; q < 40; q++ {
			a := txs[rng.Intn(len(txs))].Items
			var c types.Itemset
			switch q % 4 {
			case 0:
				c = a
			case 1:
				c = a.Intersect(txs[rng.Intn(len(txs))].Items)
			case 2:
				// A proper subset of a pair's intersection: contained in
				// both, so only other pairs can make it implicit.
				c = a.Intersect(txs[rng.Intn(len(txs))].Items)
				if len(c) > 1 {
					c = c.Without(c[rng.Intn(len(c))])
				}
			default:
				if len(a) > 0 {
					c = randomSubset(rng, a)
				}
			}
			if len(c) == 0 {
				continue
			}
			want := classifyByDefinition(db, c)
			if got := ClassifyTIDs(db, c, db.TIDs(c, nil)); got != want {
				t.Fatalf("trial %d: ClassifyTIDs(%v) = %s, by definition %s", trial, c, got, want)
			}
			if got := Classify(db, c); got != want {
				t.Fatalf("trial %d: Classify(%v) = %s, by definition %s", trial, c, got, want)
			}
			if seen[want] == 0 {
				tids := db.TIDs(c, nil)
				if allocs := testing.AllocsPerRun(50, func() { ClassifyTIDs(db, c, tids) }); allocs != 0 {
					t.Errorf("ClassifyTIDs(%v) (%s) allocated %.1f times per call, want 0", c, want, allocs)
				}
			}
			seen[want]++
			if want == Unsupported && db.Support(c) >= 2 {
				pairsChecked++
			}
		}
	}
	for _, st := range []SupportType{Explicit, Implicit, Unsupported} {
		if seen[st] == 0 {
			t.Errorf("no %s query drawn (seen %v)", st, seen)
		}
	}
	if pairsChecked == 0 {
		t.Error("no unsupported query with support >= 2 drawn")
	}
}
