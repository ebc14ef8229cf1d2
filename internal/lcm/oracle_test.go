package lcm

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"maras/internal/txdb"
	"maras/internal/types"
)

// oracleMaxItems bounds the item universe of the by-definition
// oracle: it enumerates all 2^n itemsets.
const oracleMaxItems = 14

// oracleClosed computes, by definition, what MineClosed must return
// for txs (transactions over items 0..nItems-1, at most
// oracleMaxItems) without MinDrugs, as bitmasks mapped to supports.
// Every itemset is enumerated as a bitmask; its closure is the
// intersection of the transactions that contain it, and it is closed
// when it equals its closure. The result keeps the non-empty frequent
// closed sets and applies the MaxLen rule documented on Options:
// closed sets of at most maxLen items, plus the maxLen-item subsets of
// every longer closed set C that have C's support.
func oracleClosed(txs [][]int, nItems, minsup, maxLen int) map[uint32]int {
	masks := make([]uint32, len(txs))
	for i, tx := range txs {
		for _, it := range tx {
			masks[i] |= 1 << it
		}
	}
	// support[x] counts the transactions containing x, and
	// closure[x] is their intersection.
	support := make([]int, 1<<nItems)
	closure := make([]uint32, 1<<nItems)
	for x := range support {
		closure[x] = 1<<nItems - 1
		for _, m := range masks {
			if m&uint32(x) == uint32(x) {
				support[x]++
				closure[x] &= m
			}
		}
	}
	out := make(map[uint32]int)
	for x := uint32(1); x < 1<<nItems; x++ {
		sup := support[x]
		if sup < minsup || sup == 0 || closure[x] != x {
			continue
		}
		if maxLen <= 0 || bits.OnesCount32(x) <= maxLen {
			out[x] = sup
			continue
		}
		// x is closed and longer than the bound: keep its maxLen-item
		// subsets of equal support.
		for y := x; y > 0; y = (y - 1) & x {
			if bits.OnesCount32(y) == maxLen && support[y] == sup {
				out[y] = sup
			}
		}
	}
	return out
}

// oracleTargets applies the MinDrugs rule of Options, by definition,
// to the oracle's sets (after the MaxLen rule): with minDrugs > 0 it
// keeps the sets with at least minDrugs drugs (items outside the
// reactions mask) and at least one reaction. It returns them keyed by
// itemset key.
func oracleTargets(sets map[uint32]int, reactions uint32, minDrugs int) map[string]int {
	out := make(map[string]int)
	for x, sup := range sets {
		if minDrugs > 0 && (bits.OnesCount32(x&^reactions) < minDrugs || x&reactions == 0) {
			continue
		}
		out[maskSet(x).Key()] = sup
	}
	return out
}

func maskSet(x uint32) types.Itemset {
	var s types.Itemset
	for ; x != 0; x &= x - 1 {
		s = append(s, types.Item(bits.TrailingZeros32(x)))
	}
	return s
}

// checkAgainstOracle mines txs, with the items in the reactions mask
// interned as reactions and the rest as drugs, at MinDrugs 0 to 3
// under one and four workers, and holds each result to the oracle:
// the same sets with the same supports, none twice, in the documented
// order, each with its occurrence and closedness as checkOccurrences
// requires.
func checkAgainstOracle(t *testing.T, label string, txs [][]int, nItems, minsup, maxLen int, reactions uint32) {
	t.Helper()
	closed := oracleClosed(txs, nItems, minsup, maxLen)
	db := buildSplitDB(t, txs, reactions)
	for minDrugs := 0; minDrugs <= 3; minDrugs++ {
		want := oracleTargets(closed, reactions, minDrugs)
		for _, workers := range []int{1, 4} {
			opts := Options{MinSupport: minsup, MaxLen: maxLen, MinDrugs: minDrugs}
			m := mine(db, opts, workers)
			got := m.Sets
			if err := checkOccurrences(db, m); err != nil {
				t.Fatalf("%s (minsup=%d maxLen=%d minDrugs=%d reactions=%#x workers=%d): %v",
					label, minsup, maxLen, minDrugs, reactions, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s (minsup=%d maxLen=%d minDrugs=%d reactions=%#x workers=%d): mined %d sets, oracle %d\nmined=%v\noracle=%v",
					label, minsup, maxLen, minDrugs, reactions, workers, len(got), len(want), got, want)
			}
			for _, fs := range got {
				if sup, ok := want[fs.Items.Key()]; !ok || sup != fs.Support {
					t.Fatalf("%s (minsup=%d maxLen=%d minDrugs=%d reactions=%#x workers=%d): mined %v/%d, oracle support %d (present %v)",
						label, minsup, maxLen, minDrugs, reactions, workers, fs.Items, fs.Support, sup, ok)
				}
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return resultLess(got[i], got[j]) }) {
				t.Fatalf("%s (minDrugs=%d workers=%d): result not in support/length/lexicographic order", label, minDrugs, workers)
			}
		}
	}
}

// checkOccurrences holds every set of m to the definitions: its
// occurrence is exactly db.TIDs of the set, ascending, and it is
// closed exactly when it equals the intersection of the transactions
// in its occurrence, which by the MaxLen rule fails only for bounded
// subsets. A set without an occurrence fails by value.
func checkOccurrences(db *txdb.DB, m *Mined) error {
	if len(m.spans) != len(m.Sets) || len(m.closed) != len(m.Sets) {
		return fmt.Errorf("%d sets, %d occurrences, %d closed bits", len(m.Sets), len(m.spans), len(m.closed))
	}
	for i, fs := range m.Sets {
		want := db.TIDs(fs.Items, nil)
		if !slices.Equal(m.Occurrence(i), want) {
			return fmt.Errorf("%v/%d occurs in %v, tidset %v", fs.Items, fs.Support, m.Occurrence(i), want)
		}
		closure := db.Tx(want[0]).Items
		for _, tid := range want[1:] {
			closure = closure.Intersect(db.Tx(tid).Items)
		}
		if closed := closure.Equal(fs.Items); m.Closed(i) != closed {
			return fmt.Errorf("%v/%d has closed bit %v, closure %v", fs.Items, fs.Support, m.Closed(i), closure)
		}
	}
	return nil
}

// randomSplit draws which of nItems items are reactions.
func randomSplit(rng *rand.Rand, nItems int) uint32 {
	return uint32(rng.Int63()) & (1<<nItems - 1)
}

// resultLess is the documented result order of MineClosed.
func resultLess(a, b types.FrequentSet) bool {
	if a.Support != b.Support {
		return a.Support > b.Support
	}
	if len(a.Items) != len(b.Items) {
		return len(a.Items) < len(b.Items)
	}
	for k := range a.Items {
		if a.Items[k] != b.Items[k] {
			return a.Items[k] < b.Items[k]
		}
	}
	return false
}

func randomTxs(rng *rand.Rand, nTx, nItems int, density float64) [][]int {
	txs := make([][]int, nTx)
	for i := range txs {
		for it := 0; it < nItems; it++ {
			if rng.Float64() < density {
				txs[i] = append(txs[i], it)
			}
		}
	}
	return txs
}

func TestMineClosedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type dbCase struct {
		name   string
		txs    [][]int
		nItems int
	}
	var cases []dbCase
	for i := 0; i < 12; i++ {
		nItems := 3 + rng.Intn(oracleMaxItems-2)
		cases = append(cases, dbCase{"random", randomTxs(rng, 1+rng.Intn(40), nItems, 0.2+0.6*rng.Float64()), nItems})
	}
	for i := 0; i < 6; i++ {
		// A few distinct transactions, each repeated many times.
		nItems := 4 + rng.Intn(oracleMaxItems-3)
		distinct := randomTxs(rng, 1+rng.Intn(4), nItems, 0.5)
		var txs [][]int
		for n := 20 + rng.Intn(30); n > 0; n-- {
			txs = append(txs, distinct[rng.Intn(len(distinct))])
		}
		cases = append(cases, dbCase{"duplicate-heavy", txs, nItems})
	}
	same := []int{0, 2, 3, 5, 8}
	cases = append(cases,
		dbCase{"all-identical", [][]int{same, same, same, same, same, same}, 9},
		dbCase{"single transaction", [][]int{{1, 4, 6, 7}}, 8},
		dbCase{"empty transactions", [][]int{{}, {0, 1}, {}, {0, 1, 2}, {}, {1, 2}}, 3},
		dbCase{"only empty transactions", [][]int{{}, {}, {}}, 1},
		dbCase{"all items everywhere", [][]int{{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3, 4}}, 5},
	)
	// The drug/reaction splits come from their own source, so drawing
	// them leaves the corpora above unchanged.
	splits := rand.New(rand.NewSource(19))
	for _, c := range cases {
		reactions := randomSplit(splits, c.nItems)
		for _, minsup := range []int{1, 2, 3, len(c.txs), len(c.txs) + 1} {
			for maxLen := 0; maxLen <= 4; maxLen++ {
				checkAgainstOracle(t, c.name, c.txs, c.nItems, minsup, maxLen, reactions)
			}
		}
	}
}

// TestMineClosedMatchesFPGrowthRandom runs the sparse random corpora
// (up to 12 items, unbounded) that once compared MineClosed with
// fpgrowth's closed miner; they are now held to the oracle.
func TestMineClosedMatchesFPGrowthRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	splits := rand.New(rand.NewSource(73))
	for i := 0; i < 30; i++ {
		nItems := 4 + rng.Intn(9)
		txs := nonEmpty(rng, randomTxs(rng, 8+rng.Intn(60), nItems, 0.35), nItems)
		checkAgainstOracle(t, "sparse", txs, nItems, 1+rng.Intn(4), 0, randomSplit(splits, nItems))
	}
}

// TestMineClosedBoundedMatchesFPGrowthRandom runs the dense random
// corpora (up to 14 items, MaxLen 1-4) that once compared MineClosed
// with fpgrowth's closed miner, now held to the oracle. Most closed
// sets here outrun every bound, so the bounded subsets carry the
// result.
func TestMineClosedBoundedMatchesFPGrowthRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	splits := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		nItems := 6 + rng.Intn(oracleMaxItems-5)
		txs := nonEmpty(rng, randomTxs(rng, 6+rng.Intn(40), nItems, 0.5+0.4*rng.Float64()), nItems)
		minsup := 1 + rng.Intn(3)
		reactions := randomSplit(splits, nItems)
		for maxLen := 1; maxLen <= 4; maxLen++ {
			checkAgainstOracle(t, "dense", txs, nItems, minsup, maxLen, reactions)
		}
	}
}

// nonEmpty gives every empty transaction of txs one random item.
func nonEmpty(rng *rand.Rand, txs [][]int, nItems int) [][]int {
	for i := range txs {
		if len(txs[i]) == 0 {
			txs[i] = []int{rng.Intn(nItems)}
		}
	}
	return txs
}

// FuzzMineClosed decodes the input into a small database (up to
// oracleMaxItems items and 48 transactions, two bytes of item bitmask
// each, after a two-byte bitmask of the items that are reactions) plus
// minimum support and length bound, and holds MineClosed to the oracle
// at MinDrugs 0 to 3 under one and four workers, occurrences and
// closed bits included.
func FuzzMineClosed(f *testing.F) {
	f.Add([]byte{5, 1, 0, 0x0a, 0, 0x1f, 0, 0x0f, 0, 0x03, 0, 0x03, 0})
	f.Add([]byte{12, 2, 3, 0x35, 0x06, 0xff, 0x0f, 0xff, 0x0f, 0xf0, 0x00, 0x0f, 0x0f})
	f.Add([]byte{8, 1, 2, 0x42, 0, 0, 0, 0x81, 0, 0x81, 0, 0x42, 0})
	f.Add([]byte{3, 9, 1, 0x02, 0, 0x07, 0, 0x07, 0})
	// Every item a drug: the rank order is the ID order.
	f.Add([]byte{5, 1, 0, 0, 0, 0x1f, 0, 0x0f, 0, 0x03, 0, 0x03, 0})
	// Reactions below drugs in ID order, in long dense transactions.
	f.Add([]byte{10, 1, 4, 0x0f, 0, 0xff, 0x03, 0xfe, 0x03, 0x7f, 0x03, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		nItems := 1 + int(data[0])%oracleMaxItems
		minsup := 1 + int(data[1])%6
		maxLen := int(data[2]) % 5
		reactions := (uint32(data[3]) | uint32(data[4])<<8) & (1<<nItems - 1)
		data = data[5:]
		var txs [][]int
		for len(data) >= 2 && len(txs) < 48 {
			mask := (uint32(data[0]) | uint32(data[1])<<8) & (1<<nItems - 1)
			data = data[2:]
			var tx []int
			for it := 0; it < nItems; it++ {
				if mask&(1<<it) != 0 {
					tx = append(tx, it)
				}
			}
			txs = append(txs, tx)
		}
		checkAgainstOracle(t, "fuzz", txs, nItems, minsup, maxLen, reactions)
	})
}
