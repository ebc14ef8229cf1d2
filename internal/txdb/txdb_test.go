package txdb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"maras/internal/types"
)

// buildTiny builds the worked example from Section 3.3 of the paper:
// drugs d1,d2 and reactions a1,a2 in one report, plus reports that
// implicitly support some sub-associations.
func buildTiny(t *testing.T) (*DB, map[string]types.Item) {
	t.Helper()
	dict := types.NewDictionary()
	items := map[string]types.Item{}
	for _, d := range []string{"d1", "d2", "d5", "d6"} {
		items[d] = dict.Intern(d, types.DomainDrug)
	}
	for _, a := range []string{"a1", "a2", "a3", "a7"} {
		items[a] = dict.Intern(a, types.DomainReaction)
	}
	db := New(dict)
	db.Add("r1", types.NewItemset(items["d1"], items["d2"], items["a1"], items["a2"]))
	db.Add("r2", types.NewItemset(items["d1"], items["d5"], items["d6"], items["a2"], items["a3"], items["a7"]))
	db.Add("r3", types.NewItemset(items["d1"], items["a2"]))
	db.Freeze()
	return db, items
}

func TestSupportBasics(t *testing.T) {
	db, items := buildTiny(t)
	cases := []struct {
		set  types.Itemset
		want int
	}{
		{types.NewItemset(), 3},
		{types.NewItemset(items["d1"]), 3},
		{types.NewItemset(items["d2"]), 1},
		{types.NewItemset(items["a2"]), 3},
		{types.NewItemset(items["d1"], items["a2"]), 3},
		{types.NewItemset(items["d1"], items["d2"]), 1},
		{types.NewItemset(items["d1"], items["d2"], items["a1"], items["a2"]), 1},
		{types.NewItemset(items["d2"], items["d5"]), 0},
		{types.NewItemset(items["d5"], items["a3"]), 1},
	}
	for _, c := range cases {
		if got := db.Support(c.set); got != c.want {
			t.Errorf("Support(%v) = %d, want %d", c.set, got, c.want)
		}
	}
}

func TestSupportMissingItem(t *testing.T) {
	db, items := buildTiny(t)
	ghost := types.Item(10_000)
	if got := db.Support(types.NewItemset(items["d1"], ghost)); got != 0 {
		t.Errorf("Support with never-seen item = %d, want 0", got)
	}
}

func TestTIDsExact(t *testing.T) {
	db, items := buildTiny(t)
	tids := db.TIDs(types.NewItemset(items["d1"], items["a2"]), nil)
	want := []TID{0, 1, 2}
	if len(tids) != len(want) {
		t.Fatalf("TIDs = %v, want %v", tids, want)
	}
	for i := range want {
		if tids[i] != want[i] {
			t.Fatalf("TIDs = %v, want %v", tids, want)
		}
	}
}

func TestTIDsBufferReuse(t *testing.T) {
	db, items := buildTiny(t)
	buf := make([]TID, 0, 8)
	a := db.TIDs(types.NewItemset(items["d1"]), buf)
	b := db.TIDs(types.NewItemset(items["d2"]), a)
	if len(b) != 1 || b[0] != 0 {
		t.Errorf("reused-buffer TIDs = %v, want [0]", b)
	}
}

func TestAddAfterFreezePanics(t *testing.T) {
	db, items := buildTiny(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on Add after Freeze")
		}
	}()
	db.Add("late", types.NewItemset(items["d1"]))
}

// Freeze counts and fills every item's postings from the slab: each
// list must equal a scan over Tx, for items that occur, items interned
// but never added, and items beyond the dictionary, on an empty DB
// and whether NewSized's hints were too small, exact or too large
// (they set capacity only).
func TestFreezeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := range 40 {
		dict := types.NewDictionary()
		nItems := 1 + rng.Intn(40)
		for i := range nItems {
			dict.Intern(fmt.Sprint("i", i), types.Domain(i%2))
		}
		n := []int{0, 1, 7, 64, 65, 300}[trial%6]
		txs := make([]types.Itemset, n)
		total := 0
		for t := range txs {
			for range rng.Intn(8) {
				// Skewed, so some items are dense, and now and then an
				// item the dictionary never issued.
				txs[t] = append(txs[t], types.Item(rng.Intn(1+rng.Intn(nItems+2))))
			}
			total += len(txs[t])
		}
		hint := []int{0, 1, 2, 4}[trial%4] // ×½: too small ... ×2: too large
		db := NewSized(dict, n*hint/2, total*hint/2)
		for i, tx := range txs {
			db.Add(fmt.Sprint("r", i), tx)
		}
		db.Freeze()
		if db.Len() != n {
			t.Fatalf("trial %d: Len = %d, want %d", trial, db.Len(), n)
		}
		for it := range types.Item(nItems + 3) {
			var want []TID
			for tid := range TID(db.Len()) {
				if db.Tx(tid).Items.Contains(it) {
					want = append(want, tid)
				}
			}
			got := db.Postings(it)
			if !slices.Equal(got, want) || (got == nil) != (want == nil) || db.ItemSupport(it) != len(want) {
				t.Fatalf("trial %d: item %d postings %v, scan %v", trial, it, got, want)
			}
		}
		for tid, tx := range txs {
			got := db.Tx(TID(tid))
			if got.ReportID != fmt.Sprint("r", tid) || !got.Items.Equal(tx.Clone().Normalize()) {
				t.Fatalf("trial %d: Tx(%d) = %v, added %v", trial, tid, got, tx)
			}
		}
	}
}

func TestStats(t *testing.T) {
	db, _ := buildTiny(t)
	s := db.Stats()
	if s.Reports != 3 {
		t.Errorf("Reports = %d, want 3", s.Reports)
	}
	if s.Drugs != 4 {
		t.Errorf("Drugs = %d, want 4", s.Drugs)
	}
	if s.Reactions != 4 {
		t.Errorf("Reactions = %d, want 4", s.Reactions)
	}
	// 2 + 3 + 1 = 6 drug mentions over 3 reports.
	if got := s.AvgDrugs; got < 1.99 || got > 2.01 {
		t.Errorf("AvgDrugs = %v, want 2.0", got)
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestTransactionReportID(t *testing.T) {
	db, _ := buildTiny(t)
	if got := db.Tx(1).ReportID; got != "r2" {
		t.Errorf("Tx(1).ReportID = %q, want r2", got)
	}
	if db.Len() != 3 {
		t.Errorf("Len = %d", db.Len())
	}
}

// Property: Support via posting lists agrees with a brute-force scan,
// across random databases.
func TestSupportMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		dict := types.NewDictionary()
		nItems := 12
		items := make([]types.Item, nItems)
		for i := range items {
			dom := types.DomainDrug
			if i >= nItems/2 {
				dom = types.DomainReaction
			}
			items[i] = dict.Intern(fmt.Sprintf("i%d", i), dom)
		}
		db := New(dict)
		n := 30 + rng.Intn(60)
		for r := 0; r < n; r++ {
			var tx types.Itemset
			for _, it := range items {
				if rng.Float64() < 0.3 {
					tx = append(tx, it)
				}
			}
			db.Add(fmt.Sprintf("r%d", r), tx.Normalize())
		}
		db.Freeze()

		for q := 0; q < 40; q++ {
			var query types.Itemset
			for _, it := range items {
				if rng.Float64() < 0.25 {
					query = append(query, it)
				}
			}
			query = query.Normalize()
			want := 0
			for tid := range TID(db.Len()) {
				if db.Tx(tid).Items.ContainsAll(query) {
					want++
				}
			}
			if got := db.Support(query); got != want {
				t.Fatalf("trial %d: Support(%v) = %d, brute force %d", trial, query, got, want)
			}
		}
	}
}

func TestGallop(t *testing.T) {
	l := []TID{2, 4, 8, 16, 32, 64, 128}
	cases := []struct {
		start int
		v     TID
		want  int
	}{
		{0, 1, 0},
		{0, 2, 0},
		{0, 3, 1},
		{0, 64, 5},
		{0, 65, 6},
		{0, 128, 6},
		{0, 129, 7},
		{3, 16, 3},
		{3, 200, 7},
		{7, 5, 7}, // start past end
	}
	for _, c := range cases {
		if got := gallop(l, c.start, c.v); got != c.want {
			t.Errorf("gallop(start=%d, v=%d) = %d, want %d", c.start, c.v, got, c.want)
		}
	}
}
