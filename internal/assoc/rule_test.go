package assoc

import (
	"math"
	"strings"
	"testing"

	"maras/internal/fpgrowth"
	"maras/internal/lcm"
	"maras/internal/synth"
	"maras/internal/txdb"
	"maras/internal/types"
)

// fixture builds a small FAERS-like DB:
//
//	r1: {A,W} -> {bleed, nausea}   (explicit for A,W=>bleed,nausea)
//	r2: {A,W} -> {bleed, nausea}
//	r3: {A}   -> {nausea}
//	r4: {W}   -> {bleed}
//	r5: {A,W,Z} -> {bleed, nausea, rash}
//	r6: {Z}   -> {rash}
func fixture(t testing.TB) (*txdb.DB, map[string]types.Item) {
	t.Helper()
	dict := types.NewDictionary()
	m := map[string]types.Item{}
	for _, d := range []string{"ASPIRIN", "WARFARIN", "ZOMETA"} {
		m[d] = dict.Intern(d, types.DomainDrug)
	}
	for _, a := range []string{"Haemorrhage", "Nausea", "Rash"} {
		m[a] = dict.Intern(a, types.DomainReaction)
	}
	A, W, Z := m["ASPIRIN"], m["WARFARIN"], m["ZOMETA"]
	bl, na, ra := m["Haemorrhage"], m["Nausea"], m["Rash"]

	db := txdb.New(dict)
	db.Add("r1", types.NewItemset(A, W, bl, na))
	db.Add("r2", types.NewItemset(A, W, bl, na))
	db.Add("r3", types.NewItemset(A, na))
	db.Add("r4", types.NewItemset(W, bl))
	db.Add("r5", types.NewItemset(A, W, Z, bl, na, ra))
	db.Add("r6", types.NewItemset(Z, ra))
	db.Freeze()
	return db, m
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestEvaluateMeasures(t *testing.T) {
	db, m := fixture(t)
	A, W := m["ASPIRIN"], m["WARFARIN"]
	bl := m["Haemorrhage"]

	r := Evaluate(db, types.NewItemset(A, W), types.NewItemset(bl))
	if r.Support != 3 {
		t.Errorf("Support = %d, want 3", r.Support)
	}
	if r.AntSupport != 3 {
		t.Errorf("AntSupport = %d, want 3", r.AntSupport)
	}
	if r.ConSupport != 4 {
		t.Errorf("ConSupport = %d, want 4", r.ConSupport)
	}
	if !almostEq(r.Confidence, 1.0) {
		t.Errorf("Confidence = %v, want 1.0", r.Confidence)
	}
	// lift = 3*6/(3*4) = 1.5
	if !almostEq(r.Lift, 1.5) {
		t.Errorf("Lift = %v, want 1.5", r.Lift)
	}
}

func TestEvaluateZeroAntecedentSupport(t *testing.T) {
	db, m := fixture(t)
	ghostDrug := db.Dict().Intern("GHOST", types.DomainDrug)
	r := Evaluate(db, types.NewItemset(ghostDrug), types.NewItemset(m["Rash"]))
	if r.Support != 0 || r.Confidence != 0 || r.Lift != 0 {
		t.Errorf("ghost rule = %+v, want zeros", r)
	}
}

func TestRuleKeyAndComplete(t *testing.T) {
	db, m := fixture(t)
	r := Evaluate(db, types.NewItemset(m["ASPIRIN"], m["WARFARIN"]), types.NewItemset(m["Haemorrhage"]))
	want := types.NewItemset(m["ASPIRIN"], m["WARFARIN"], m["Haemorrhage"])
	if !r.Complete().Equal(want) {
		t.Errorf("Complete = %v, want %v", r.Complete(), want)
	}
	if r.Key() == "" || !strings.Contains(r.Key(), "=>") {
		t.Errorf("Key = %q", r.Key())
	}
}

func TestRuleRender(t *testing.T) {
	db, m := fixture(t)
	r := Evaluate(db, types.NewItemset(m["ASPIRIN"], m["WARFARIN"]), types.NewItemset(m["Haemorrhage"]))
	s := r.Render(db.Dict())
	for _, want := range []string{"ASPIRIN", "WARFARIN", "Haemorrhage", "sup=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("Render missing %q: %s", want, s)
		}
	}
}

func TestMeasureValue(t *testing.T) {
	r := &Rule{Confidence: 0.7, Lift: 3.2}
	if !almostEq(MeasureConfidence.Value(r), 0.7) {
		t.Error("confidence measure wrong")
	}
	if !almostEq(MeasureLift.Value(r), 3.2) {
		t.Error("lift measure wrong")
	}
	if MeasureConfidence.String() != "confidence" || MeasureLift.String() != "lift" {
		t.Error("measure names wrong")
	}
}

func TestClassifyExplicit(t *testing.T) {
	db, m := fixture(t)
	A, W := m["ASPIRIN"], m["WARFARIN"]
	bl, na := m["Haemorrhage"], m["Nausea"]
	// r1 is exactly {A,W,bleed,nausea}: explicit.
	if got := Classify(db, types.NewItemset(A, W, bl, na)); got != Explicit {
		t.Errorf("Classify = %v, want explicit", got)
	}
}

func TestClassifyImplicit(t *testing.T) {
	dict := types.NewDictionary()
	d1 := dict.Intern("d1", types.DomainDrug)
	d2 := dict.Intern("d2", types.DomainDrug)
	d3 := dict.Intern("d3", types.DomainDrug)
	a1 := dict.Intern("a1", types.DomainReaction)
	a2 := dict.Intern("a2", types.DomainReaction)
	db := txdb.New(dict)
	// {d1,a1} never appears alone but is the exact intersection of r1, r2.
	db.Add("r1", types.NewItemset(d1, d2, a1))
	db.Add("r2", types.NewItemset(d1, d3, a1, a2))
	db.Freeze()
	if got := Classify(db, types.NewItemset(d1, a1)); got != Implicit {
		t.Errorf("Classify = %v, want implicit", got)
	}
}

func TestClassifyUnsupported(t *testing.T) {
	dict := types.NewDictionary()
	d1 := dict.Intern("d1", types.DomainDrug)
	d2 := dict.Intern("d2", types.DomainDrug)
	a1 := dict.Intern("a1", types.DomainReaction)
	a2 := dict.Intern("a2", types.DomainReaction)
	db := txdb.New(dict)
	// Single report {d1,d2,a1,a2}; the partial {d1,a2} is neither the
	// full report nor an intersection of two reports -> type 3.
	db.Add("r1", types.NewItemset(d1, d2, a1, a2))
	db.Freeze()
	if got := Classify(db, types.NewItemset(d1, a2)); got != Unsupported {
		t.Errorf("Classify = %v, want unsupported", got)
	}
	if Unsupported.String() != "unsupported" || Explicit.String() != "explicit" || Implicit.String() != "implicit" {
		t.Error("SupportType names wrong")
	}
}

// synthDB encodes a synthetic quarter's reports as they come, drugs
// and reactions by name, without cleaning.
func synthDB(t testing.TB, reports int) *txdb.DB {
	t.Helper()
	cfg := synth.DefaultConfig("2014Q1", 3)
	cfg.Reports = reports
	cfg.ExposureRate = 0.05
	q, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dict := types.NewDictionary()
	db := txdb.New(dict)
	for _, r := range q.Reports() {
		var items []types.Item
		for _, d := range r.Drugs {
			items = append(items, dict.Intern("drug:"+d, types.DomainDrug))
		}
		for _, x := range r.Reactions {
			items = append(items, dict.Intern("reac:"+x, types.DomainReaction))
		}
		db.Add(r.PrimaryID, types.NewItemset(items...))
	}
	db.Freeze()
	return db
}

// Lemma 3.4.2: every closed complete itemset with both domains yields
// a supported (explicit or implicit) association, on the fixture and
// on a synthetic quarter. ClassifyClosed, fed what the miner delivers
// with each target, agrees with the general classifier, and under a
// length bound types exactly the bounded subsets, which are not
// closed, unsupported.
func TestClosedItemsetsAreSupported(t *testing.T) {
	fix, _ := fixture(t)
	for _, c := range []struct {
		name   string
		db     *txdb.DB
		minsup int
		mixed  bool // both explicit and implicit targets occur
	}{{"fixture", fix, 1, false}, {"synthetic quarter", synthDB(t, 3_000), 4, true}} {
		seen := map[SupportType]int{}
		for _, maxLen := range []int{0, 3} {
			m := lcm.Mine(c.db, lcm.Options{MinSupport: c.minsup, MaxLen: maxLen, MinDrugs: 1})
			for i, fs := range m.Sets {
				got := Classify(c.db, fs.Items)
				if maxLen == 0 && got == Unsupported {
					t.Errorf("%s: closed itemset %v classified unsupported, violating Lemma 3.4.2", c.name, fs.Items)
				}
				if m.Closed(i) != (got != Unsupported) {
					t.Errorf("%s (MaxLen %d): %v has closed bit %v, classified %s", c.name, maxLen, fs.Items, m.Closed(i), got)
				}
				if fast := ClassifyClosed(c.db, len(fs.Items), m.Occurrence(i), m.Closed(i)); fast != got {
					t.Errorf("%s (MaxLen %d): ClassifyClosed(%v) = %s, Classify %s", c.name, maxLen, fs.Items, fast, got)
				}
				seen[got]++
			}
		}
		if c.mixed && (seen[Explicit] == 0 || seen[Implicit] == 0) {
			t.Errorf("%s: types seen %v, want explicit and implicit targets", c.name, seen)
		}
	}
}

func TestFromItemsetsFiltersDomains(t *testing.T) {
	db, m := fixture(t)
	closed := lcm.MineClosed(db, lcm.Options{MinSupport: 1})
	rules, _ := FromItemsets(NewEvaluator(db), closed, GenOptions{MinDrugs: 2})
	if len(rules) == 0 {
		t.Fatal("no rules generated")
	}
	for _, r := range rules {
		if len(r.Antecedent) < 2 {
			t.Errorf("rule %s has %d drugs, want >= 2", r.Key(), len(r.Antecedent))
		}
		for _, it := range r.Antecedent {
			if !db.Dict().IsDrug(it) {
				t.Errorf("non-drug in antecedent of %s", r.Key())
			}
		}
		for _, it := range r.Consequent {
			if !db.Dict().IsReaction(it) {
				t.Errorf("non-reaction in consequent of %s", r.Key())
			}
		}
	}
	// The A,W => bleed,nausea rule must be present with support 3.
	wantKey := types.NewItemset(m["ASPIRIN"], m["WARFARIN"]).Key() + "=>" +
		types.NewItemset(m["Haemorrhage"], m["Nausea"]).Key()
	found := false
	for _, r := range rules {
		if r.Key() == wantKey {
			found = true
			if r.Support != 3 {
				t.Errorf("A,W=>bleed,nausea support = %d, want 3", r.Support)
			}
		}
	}
	if !found {
		t.Errorf("expected rule %s missing", wantKey)
	}
}

func TestFromItemsetsMinConfidence(t *testing.T) {
	// Dedicated DB where confidences differ: d1 appears 3 times but
	// co-occurs with a1 only twice -> conf(d1 => a1) = 2/3.
	dict := types.NewDictionary()
	d1 := dict.Intern("d1", types.DomainDrug)
	d2 := dict.Intern("d2", types.DomainDrug)
	a1 := dict.Intern("a1", types.DomainReaction)
	a2 := dict.Intern("a2", types.DomainReaction)
	db := txdb.New(dict)
	db.Add("r1", types.NewItemset(d1, a1))
	db.Add("r2", types.NewItemset(d1, a1))
	db.Add("r3", types.NewItemset(d1, a2))
	db.Add("r4", types.NewItemset(d2, a2))
	db.Freeze()
	closed := lcm.MineClosed(db, lcm.Options{MinSupport: 1})
	all, _ := FromItemsets(NewEvaluator(db), closed, GenOptions{MinDrugs: 1})
	high, _ := FromItemsets(NewEvaluator(db), closed, GenOptions{MinDrugs: 1, MinConfidence: 0.9})
	if len(high) >= len(all) {
		t.Errorf("MinConfidence did not filter: %d vs %d", len(high), len(all))
	}
	for _, r := range high {
		if r.Confidence < 0.9 {
			t.Errorf("rule %s confidence %v below threshold", r.Key(), r.Confidence)
		}
	}
}

func TestFromItemsetsMaxDrugs(t *testing.T) {
	db, _ := fixture(t)
	closed := lcm.MineClosed(db, lcm.Options{MinSupport: 1})
	rules, _ := FromItemsets(NewEvaluator(db), closed, GenOptions{MinDrugs: 1, MaxDrugs: 2})
	for _, r := range rules {
		if len(r.Antecedent) > 2 {
			t.Errorf("rule %s exceeds MaxDrugs", r.Key())
		}
	}
}

func TestAllPartitionsBlowup(t *testing.T) {
	db, _ := fixture(t)
	all := fpgrowth.Mine(db, fpgrowth.Options{MinSupport: 1})
	closed := lcm.MineClosed(db, lcm.Options{MinSupport: 1})

	total := AllPartitions(db, all, 0)
	filtered, _ := FromItemsets(NewEvaluator(db), closed, GenOptions{MinDrugs: 2})
	if len(total) <= len(filtered) {
		t.Errorf("partition rules (%d) should outnumber closed multi-drug rules (%d)",
			len(total), len(filtered))
	}
	if got := CountAllPartitionRules(db, all); got != len(total) {
		t.Errorf("CountAllPartitionRules = %d, want %d", got, len(total))
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, r := range total {
		if seen[r.Key()] {
			t.Errorf("duplicate rule %s", r.Key())
		}
		seen[r.Key()] = true
	}
}

// For the single-report toy of Section 3.3, traditional generation
// yields (2^2-1)(2^2-1) = 9 rules.
func TestAllPartitionsSectionThreeThreeExample(t *testing.T) {
	dict := types.NewDictionary()
	d1 := dict.Intern("d1", types.DomainDrug)
	d2 := dict.Intern("d2", types.DomainDrug)
	a1 := dict.Intern("a1", types.DomainReaction)
	a2 := dict.Intern("a2", types.DomainReaction)
	db := txdb.New(dict)
	db.Add("r1", types.NewItemset(d1, d2, a1, a2))
	db.Freeze()

	all := fpgrowth.Mine(db, fpgrowth.Options{MinSupport: 1})
	rules := AllPartitions(db, all, 0)
	if len(rules) != 9 {
		t.Errorf("single report generated %d rules, want 9", len(rules))
	}
	// The unconstrained classical rule space over the same report:
	// Σ over the 15 frequent itemsets of (2^k − 2)
	// = 6·2 (pairs) + 4·6 (triples) + 1·14 (the quad) = 50.
	if got := CountTraditionalRules(all); got != 50 {
		t.Errorf("CountTraditionalRules = %d, want 50", got)
	}
	// And the drug→ADR filter at complete-itemset granularity counts
	// the 9 both-domain itemsets.
	if got := CountDrugADRRules(db.Dict(), all); got != 9 {
		t.Errorf("CountDrugADRRules = %d, want 9", got)
	}
}
