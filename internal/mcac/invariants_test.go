package mcac

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"maras/internal/assoc"
	"maras/internal/txdb"
	"maras/internal/types"
)

// randomDB builds a random report database with nDrugs drugs and
// nReacs reactions.
func randomDB(t testing.TB, rng *rand.Rand, nDrugs, nReacs, nTx int) *txdb.DB {
	t.Helper()
	dict := types.NewDictionary()
	drugs := make([]types.Item, nDrugs)
	for i := range drugs {
		drugs[i] = dict.Intern(fmt.Sprintf("D%d", i), types.DomainDrug)
	}
	reacs := make([]types.Item, nReacs)
	for i := range reacs {
		reacs[i] = dict.Intern(fmt.Sprintf("r%d", i), types.DomainReaction)
	}
	db := txdb.New(dict)
	for i := 0; i < nTx; i++ {
		var items types.Itemset
		for _, d := range drugs {
			if rng.Float64() < 0.35 {
				items = append(items, d)
			}
		}
		for _, r := range reacs {
			if rng.Float64() < 0.3 {
				items = append(items, r)
			}
		}
		if len(items) == 0 {
			items = append(items, drugs[rng.Intn(nDrugs)])
		}
		db.Add(fmt.Sprintf("t%d", i), items.Normalize())
	}
	db.Freeze()
	return db
}

// Invariant: for every contextual rule X ⇒ B of a target A ⇒ B with
// X ⊂ A, support is anti-monotone — sup(X ∪ B) ≥ sup(A ∪ B) and
// sup(X) ≥ sup(A).
func TestContextSupportAntiMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(t, rng, 5, 4, 60)
		dict := db.Dict()
		// Build targets from all 2-3 drug combos with any reaction pair.
		var drugs, reacs types.Itemset
		for it := types.Item(0); int(it) < dict.Len(); it++ {
			if dict.IsDrug(it) {
				drugs = append(drugs, it)
			} else {
				reacs = append(reacs, it)
			}
		}
		for k := 2; k <= 3; k++ {
			drugs.SubsetsOfSize(k, func(ant types.Itemset) bool {
				target := assoc.Evaluate(db, ant.Clone(), types.Itemset{reacs[0]})
				if target.Support == 0 {
					return true
				}
				c := Build(assoc.NewEvaluator(db), target)
				for _, cr := range c.ContextRules() {
					if cr.Support < target.Support {
						t.Fatalf("anti-monotonicity violated: sup(%v∪B)=%d < sup(%v∪B)=%d",
							cr.Antecedent, cr.Support, target.Antecedent, target.Support)
					}
					if cr.AntSupport < target.AntSupport {
						t.Fatalf("antecedent support anti-monotonicity violated")
					}
				}
				return true
			})
		}
	}
}

// Invariant: every contextual confidence is well-defined in [0,1] and
// lift is non-negative, over random databases.
func TestContextMeasureBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		db := randomDB(t, rng, 6, 3, 50)
		dict := db.Dict()
		var drugs, reacs types.Itemset
		for it := types.Item(0); int(it) < dict.Len(); it++ {
			if dict.IsDrug(it) {
				drugs = append(drugs, it)
			} else {
				reacs = append(reacs, it)
			}
		}
		drugs.SubsetsOfSize(3, func(ant types.Itemset) bool {
			target := assoc.Evaluate(db, ant.Clone(), types.NewItemset(reacs[0], reacs[1]))
			c := Build(assoc.NewEvaluator(db), target)
			for _, cr := range append(c.ContextRules(), c.Target) {
				if cr.Confidence < 0 || cr.Confidence > 1 {
					t.Fatalf("confidence %v out of range for %s", cr.Confidence, cr.Key())
				}
				if cr.Lift < 0 {
					t.Fatalf("negative lift for %s", cr.Key())
				}
			}
			return true
		})
	}
}

// Invariant: buildAll gives the same clusters, in target order, on one
// worker (through ev) as on several (through forks of ev), whether
// there are fewer targets than workers or many more.
func TestBuildAllSameAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		db := randomDB(t, rng, 6, 4, 80)
		dict := db.Dict()
		var drugs, reacs types.Itemset
		for it := types.Item(0); int(it) < dict.Len(); it++ {
			if dict.IsDrug(it) {
				drugs = append(drugs, it)
			} else {
				reacs = append(reacs, it)
			}
		}
		// Targets in a shuffled order, single-drug ones among them.
		var targets []assoc.Rule
		for k := 1; k <= 4; k++ {
			drugs.SubsetsOfSize(k, func(ant types.Itemset) bool {
				con := types.Itemset{reacs[rng.Intn(len(reacs))]}
				targets = append(targets, assoc.Evaluate(db, ant.Clone(), con))
				return true
			})
		}
		rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
		if trial%2 == 1 {
			targets = targets[:3]
		}
		want := buildAll(assoc.NewEvaluator(db), targets, 1)
		for _, workers := range []int{2, 4} {
			got := buildAll(assoc.NewEvaluator(db), targets, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %d workers built clusters other than one worker's", trial, workers)
			}
		}
	}
}
