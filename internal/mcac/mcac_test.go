package mcac

import (
	"fmt"
	"math/rand"
	"testing"

	"maras/internal/assoc"
	"maras/internal/txdb"
	"maras/internal/types"
)

// xolairFixture models Table 3.1's cluster: a three-drug target
// [XOLAIR][SINGULAIR][PREDNISONE] => [Asthma] with all 6 contextual
// rules present in the data.
func xolairFixture(t testing.TB) (*txdb.DB, assoc.Rule) {
	t.Helper()
	dict := types.NewDictionary()
	x := dict.Intern("XOLAIR", types.DomainDrug)
	s := dict.Intern("SINGULAIR", types.DomainDrug)
	p := dict.Intern("PREDNISONE", types.DomainDrug)
	asthma := dict.Intern("Asthma", types.DomainReaction)
	other := dict.Intern("Cough", types.DomainReaction)

	db := txdb.New(dict)
	// Triple co-occurs with asthma strongly.
	for i := 0; i < 8; i++ {
		db.Add(fmt.Sprintf("t%d", i), types.NewItemset(x, s, p, asthma))
	}
	// Individual drugs mostly without asthma.
	for i := 0; i < 10; i++ {
		db.Add(fmt.Sprintf("x%d", i), types.NewItemset(x, other))
		db.Add(fmt.Sprintf("s%d", i), types.NewItemset(s, other))
		db.Add(fmt.Sprintf("p%d", i), types.NewItemset(p, other))
	}
	// A few pair reports with asthma to populate level 2.
	db.Add("xs", types.NewItemset(x, s, asthma))
	db.Add("xp", types.NewItemset(x, p, other))
	db.Freeze()

	target := assoc.Evaluate(db, types.NewItemset(x, s, p), types.NewItemset(asthma))
	return db, target
}

func TestBuildClusterShape(t *testing.T) {
	db, target := xolairFixture(t)
	c := Build(assoc.NewEvaluator(db), target)

	if c.DrugCount() != 3 {
		t.Fatalf("DrugCount = %d, want 3", c.DrugCount())
	}
	if got := c.ContextSize(); got != 6 { // 2^3 - 2
		t.Fatalf("ContextSize = %d, want 6", got)
	}
	if len(c.Levels) != 2 {
		t.Fatalf("Levels = %d, want 2", len(c.Levels))
	}
	if c.Levels[0].Cardinality != 2 || c.Levels[1].Cardinality != 1 {
		t.Errorf("level order = %d,%d, want 2,1 (descending)", c.Levels[0].Cardinality, c.Levels[1].Cardinality)
	}
	if len(c.Levels[0].Rules) != 3 || len(c.Levels[1].Rules) != 3 {
		t.Errorf("level sizes = %d,%d, want 3,3", len(c.Levels[0].Rules), len(c.Levels[1].Rules))
	}
}

func TestContextRulesShareConsequent(t *testing.T) {
	db, target := xolairFixture(t)
	c := Build(assoc.NewEvaluator(db), target)
	for _, r := range c.ContextRules() {
		if !r.Consequent.Equal(target.Consequent) {
			t.Errorf("context rule %s has different consequent", r.Key())
		}
		if !target.Antecedent.ProperSupersetOf(r.Antecedent) {
			t.Errorf("context antecedent %v not a proper subset of target", r.Antecedent)
		}
	}
}

func TestContextCoversPowerSet(t *testing.T) {
	db, target := xolairFixture(t)
	c := Build(assoc.NewEvaluator(db), target)
	seen := map[string]bool{}
	for _, r := range c.ContextRules() {
		if seen[r.Antecedent.Key()] {
			t.Errorf("duplicate context antecedent %v", r.Antecedent)
		}
		seen[r.Antecedent.Key()] = true
	}
	// Definition 3.5.2: antecedents = P(A) minus {A, ∅}.
	want := 0
	target.Antecedent.ProperSubsets(func(sub types.Itemset) bool {
		want++
		if !seen[sub.Key()] {
			t.Errorf("missing context antecedent %v", sub)
		}
		return true
	})
	if len(seen) != want {
		t.Errorf("context size %d, want %d", len(seen), want)
	}
}

func TestLevelOrderingByConfidence(t *testing.T) {
	db, target := xolairFixture(t)
	c := Build(assoc.NewEvaluator(db), target)
	for _, l := range c.Levels {
		for i := 1; i < len(l.Rules); i++ {
			if l.Rules[i].Confidence > l.Rules[i-1].Confidence {
				t.Errorf("level %d not sorted by confidence desc", l.Cardinality)
			}
		}
	}
}

func TestLevelFor(t *testing.T) {
	db, target := xolairFixture(t)
	c := Build(assoc.NewEvaluator(db), target)
	if l := c.LevelFor(2); l == nil || l.Cardinality != 2 {
		t.Error("LevelFor(2) wrong")
	}
	if l := c.LevelFor(99); l != nil {
		t.Error("LevelFor(99) should be nil")
	}
}

func TestSingleDrugTargetHasNoContext(t *testing.T) {
	db, target := xolairFixture(t)
	single := assoc.Evaluate(db, target.Antecedent[:1], target.Consequent)
	c := Build(assoc.NewEvaluator(db), single)
	if c.ContextSize() != 0 || len(c.Levels) != 0 {
		t.Errorf("single-drug cluster has context: %+v", c)
	}
}

func TestBuildAllSkipsSingles(t *testing.T) {
	db, target := xolairFixture(t)
	single := assoc.Evaluate(db, target.Antecedent[:1], target.Consequent)
	out := BuildAll(assoc.NewEvaluator(db), []assoc.Rule{target, single})
	if len(out) != 1 {
		t.Fatalf("BuildAll kept %d clusters, want 1", len(out))
	}
	if !out[0].Target.Antecedent.Equal(target.Antecedent) {
		t.Error("wrong cluster kept")
	}
}

func TestConfidencesByLevel(t *testing.T) {
	db, target := xolairFixture(t)
	c := Build(assoc.NewEvaluator(db), target)
	vals := c.ConfidencesByLevel()
	if len(vals) != 2 {
		t.Fatalf("levels = %d", len(vals))
	}
	for i, l := range c.Levels {
		if len(vals[i]) != len(l.Rules) {
			t.Errorf("level %d: %d values, %d rules", i, len(vals[i]), len(l.Rules))
		}
		for j, r := range l.Rules {
			if vals[i][j] != r.Confidence {
				t.Errorf("value mismatch at level %d rule %d", i, j)
			}
		}
	}
	liftVals := c.ValuesByLevel(assoc.MeasureLift)
	for i, l := range c.Levels {
		for j, r := range l.Rules {
			if liftVals[i][j] != r.Lift {
				t.Errorf("lift mismatch at level %d rule %d", i, j)
			}
		}
	}
}

// Property: for random antecedent sizes n in 2..5, context size is
// 2^n − 2 and every level k has C(n,k) rules.
func TestContextSizeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(4)
		dict := types.NewDictionary()
		drugs := make([]types.Item, n)
		for i := range drugs {
			drugs[i] = dict.Intern(fmt.Sprintf("D%d", i), types.DomainDrug)
		}
		adr := dict.Intern("ADR", types.DomainReaction)
		db := txdb.New(dict)
		full := types.NewItemset(append(append([]types.Item{}, drugs...), adr)...)
		db.Add("r0", full)
		db.Freeze()

		target := assoc.Evaluate(db, types.NewItemset(drugs...), types.NewItemset(adr))
		c := Build(assoc.NewEvaluator(db), target)
		if got, want := c.ContextSize(), (1<<uint(n))-2; got != want {
			t.Fatalf("n=%d: context size %d, want %d", n, got, want)
		}
		binom := func(n, k int) int {
			r := 1
			for i := 0; i < k; i++ {
				r = r * (n - i) / (i + 1)
			}
			return r
		}
		for _, l := range c.Levels {
			if got, want := len(l.Rules), binom(n, l.Cardinality); got != want {
				t.Fatalf("n=%d level %d: %d rules, want %d", n, l.Cardinality, got, want)
			}
		}
	}
}
