package assoc

import (
	"fmt"
	"math/rand"
	"testing"

	"maras/internal/txdb"
	"maras/internal/types"
)

// oracleMaxSupport bounds how many transactions may contain a set the
// oracle classifies: it enumerates their subsets.
const oracleMaxSupport = 14

// classifyByDefinition is the oracle for support types. Definition
// 3.3.1 scans every transaction for one equal to complete. Definition
// 3.3.2 asks for the exact intersection of at least two reports, so it
// enumerates every subset of at least two transactions that contain
// complete (a transaction without it cannot take part: the
// intersection would lack it), depth first, each subset's
// intersection taken from its parent's, until one equals complete.
func classifyByDefinition(t testing.TB, db *txdb.DB, complete types.Itemset) SupportType {
	t.Helper()
	var containing []types.Itemset
	for _, tx := range transactions(db) {
		if tx.Items.Equal(complete) {
			return Explicit
		}
		if tx.Items.ContainsAll(complete) {
			containing = append(containing, tx.Items)
		}
	}
	if len(containing) > oracleMaxSupport {
		t.Fatalf("oracle: %v occurs in %d transactions, at most %d", complete, len(containing), oracleMaxSupport)
	}
	found := false
	var visit func(from, size int, inter types.Itemset)
	visit = func(from, size int, inter types.Itemset) {
		for j := from; j < len(containing) && !found; j++ {
			next := containing[j]
			if size > 0 {
				next = inter.Intersect(next)
			}
			if size+1 >= 2 && next.Equal(complete) {
				found = true
				return
			}
			visit(j+1, size+1, next)
		}
	}
	visit(0, 0, nil)
	if found {
		return Implicit
	}
	return Unsupported
}

// pairMeets reports whether two transactions of db intersect exactly
// in complete, the pair reading of Definition 3.3.2.
func pairMeets(db *txdb.DB, complete types.Itemset) bool {
	txs := transactions(db)
	for i := range txs {
		for j := i + 1; j < len(txs); j++ {
			if txs[i].Items.Intersect(txs[j].Items).Equal(complete) {
				return true
			}
		}
	}
	return false
}

// transactions lists every transaction of db in TID order.
func transactions(db *txdb.DB) []txdb.Transaction {
	txs := make([]txdb.Transaction, db.Len())
	for t := range txs {
		txs[t] = db.Tx(txdb.TID(t))
	}
	return txs
}

// checkClassify holds ClassifyTIDs over the set's own TIDs, and
// Classify, to the oracle, and returns the oracle's type.
func checkClassify(t testing.TB, label string, db *txdb.DB, c types.Itemset) SupportType {
	t.Helper()
	want := classifyByDefinition(t, db, c)
	if got := ClassifyTIDs(db, c, db.TIDs(c, nil)); got != want {
		t.Fatalf("%s: ClassifyTIDs(%v) = %s, by definition %s", label, c, got, want)
	}
	if got := Classify(db, c); got != want {
		t.Fatalf("%s: Classify(%v) = %s, by definition %s", label, c, got, want)
	}
	return want
}

// Property: on random databases small enough for the oracle,
// ClassifyTIDs over the set's own TIDs (and Classify) agree with the
// by-definition oracle. Queries are whole transactions, intersections
// of transaction pairs and random subsets of pair intersections and of
// transactions, so every support type occurs, some unsupported sets
// occur in several transactions, and some implicit sets are the
// intersection of no pair. ClassifyTIDs runs on a tidset the caller
// already holds, so the first query of each type also checks that it
// allocates nothing.
func TestClassifyTIDsMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	seen := map[SupportType]int{}
	multi := 0  // unsupported queries in at least two transactions
	noPair := 0 // implicit queries that no pair of transactions meets in
	for trial := 0; trial < 40; trial++ {
		db, _, _ := randomDB(rng, 5, 5, 6+rng.Intn(oracleMaxSupport-5), 0.35+0.3*rng.Float64())
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
				// both, so only other subsets can make it implicit.
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
			want := checkClassify(t, fmt.Sprintf("trial %d", trial), db, c)
			if seen[want] == 0 {
				tids := db.TIDs(c, nil)
				if allocs := testing.AllocsPerRun(50, func() { ClassifyTIDs(db, c, tids) }); allocs != 0 {
					t.Errorf("ClassifyTIDs(%v) (%s) allocated %.1f times per call, want 0", c, want, allocs)
				}
			}
			seen[want]++
			if want == Unsupported && db.Support(c) >= 2 {
				multi++
			}
			if want == Implicit && !pairMeets(db, c) {
				noPair++
			}
		}
	}
	for _, st := range []SupportType{Explicit, Implicit, Unsupported} {
		if seen[st] == 0 {
			t.Errorf("no %s query drawn (seen %v)", st, seen)
		}
	}
	if multi == 0 {
		t.Error("no unsupported query with support >= 2 drawn")
	}
	if noPair == 0 {
		t.Error("no implicit query that only three or more transactions meet in drawn")
	}
}

// Three reports can meet in a set that no two of them meet in: each
// pair of {a,b,c,x,y}, {a,b,c,x,z}, {a,b,c,y,z} shares four items, but
// all three share exactly {a,b,c}, which Definition 3.3.2 ("at least
// two reports") makes implicit.
func TestImplicitNeedsNoPair(t *testing.T) {
	dict := types.NewDictionary()
	a := dict.Intern("A", types.DomainDrug)
	b := dict.Intern("B", types.DomainDrug)
	c := dict.Intern("c", types.DomainReaction)
	x := dict.Intern("x", types.DomainReaction)
	y := dict.Intern("y", types.DomainReaction)
	z := dict.Intern("z", types.DomainReaction)
	db := txdb.New(dict)
	db.Add("r1", types.NewItemset(a, b, c, x, y))
	db.Add("r2", types.NewItemset(a, b, c, x, z))
	db.Add("r3", types.NewItemset(a, b, c, y, z))
	db.Freeze()
	abc := types.NewItemset(a, b, c)
	if pairMeets(db, abc) {
		t.Fatal("fixture: some pair meets in {a,b,c}")
	}
	if got := checkClassify(t, "three reports", db, abc); got != Implicit {
		t.Errorf("{a,b,c} is %s, want implicit", got)
	}
}

// Transactions longer than 64 items take the intersection in several
// windows; a set is implicit only if every window clears.
func TestClassifyTIDsLongTransactions(t *testing.T) {
	dict := types.NewDictionary()
	var items types.Itemset
	for i := 0; i < 150; i++ {
		items = append(items, dict.Intern(fmt.Sprintf("i%d", i), types.DomainDrug))
	}
	db := txdb.New(dict)
	// Items 0..139 in both long reports, plus one item of its own
	// each, and a short report holding 0..4.
	db.Add("r1", append(items[:140:140], items[140]))
	db.Add("r2", append(items[:140:140], items[141]))
	db.Add("r3", items[:5])
	db.Freeze()
	for _, c := range []struct {
		set  types.Itemset
		want SupportType
	}{
		{items[:140], Implicit},
		{items[:5], Explicit},
		{items[:4], Unsupported},
		{append(items[:2:2], items[100]), Unsupported},
		{append(items[:140:140], items[140]), Explicit},
	} {
		if got := checkClassify(t, "long", db, c.set); got != c.want {
			t.Errorf("%d-item set is %s, want %s", len(c.set), got, c.want)
		}
	}
}

// FuzzClassify decodes the input into a database over up to 12 items
// (a byte for the item count, two bytes of query bitmask, then two
// bytes of item bitmask per transaction, at most oracleMaxSupport) and
// holds ClassifyTIDs and Classify to the oracle on the query.
func FuzzClassify(f *testing.F) {
	f.Add([]byte{6, 0x07, 0, 0x1f, 0, 0x2f, 0, 0x37, 0})
	f.Add([]byte{4, 0x03, 0, 0x03, 0, 0x07, 0, 0x0b, 0})
	f.Add([]byte{8, 0x05, 0, 0x05, 0, 0xff, 0, 0x0d, 0, 0x15, 0})
	f.Add([]byte{3, 0x01, 0, 0x02, 0, 0x04, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nItems := 1 + int(data[0])%12
		mask := func(lo, hi byte) uint32 { return (uint32(lo) | uint32(hi)<<8) & (1<<nItems - 1) }
		dict := types.NewDictionary()
		for i := 0; i < nItems; i++ {
			dict.Intern(fmt.Sprintf("i%d", i), types.DomainDrug)
		}
		set := func(m uint32) types.Itemset {
			var s types.Itemset
			for i := 0; i < nItems; i++ {
				if m&(1<<i) != 0 {
					s = append(s, types.Item(i))
				}
			}
			return s
		}
		query := set(mask(data[1], data[2]))
		db := txdb.New(dict)
		for data = data[3:]; len(data) >= 2 && db.Len() < oracleMaxSupport; data = data[2:] {
			db.Add(fmt.Sprint("r", db.Len()), set(mask(data[0], data[1])))
		}
		db.Freeze()
		checkClassify(t, "fuzz", db, query)
	})
}
