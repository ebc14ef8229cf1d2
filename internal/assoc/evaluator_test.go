package assoc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"maras/internal/lcm"
	"maras/internal/txdb"
	"maras/internal/types"
)

// randomDB builds a database over nDrugs drugs and nReacs reactions,
// each present in a transaction with probability density.
func randomDB(rng *rand.Rand, nDrugs, nReacs, nTx int, density float64) (*txdb.DB, types.Itemset, types.Itemset) {
	dict := types.NewDictionary()
	var drugs, reacs types.Itemset
	for i := 0; i < nDrugs; i++ {
		drugs = append(drugs, dict.Intern(fmt.Sprintf("D%d", i), types.DomainDrug))
	}
	for i := 0; i < nReacs; i++ {
		reacs = append(reacs, dict.Intern(fmt.Sprintf("r%d", i), types.DomainReaction))
	}
	db := txdb.New(dict)
	for t := 0; t < nTx; t++ {
		var items types.Itemset
		for _, it := range append(drugs.Clone(), reacs...) {
			if rng.Float64() < density {
				items = append(items, it)
			}
		}
		db.Add(fmt.Sprintf("t%d", t), items)
	}
	db.Freeze()
	return db, drugs, reacs
}

// randomSubset draws a non-empty subset of s.
func randomSubset(rng *rand.Rand, s types.Itemset) types.Itemset {
	for {
		var out types.Itemset
		for _, it := range s {
			if rng.Intn(2) == 0 {
				out = append(out, it)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
}

func sameMeasures(a, b Rule) bool {
	return a.Antecedent.Equal(b.Antecedent) && a.Consequent.Equal(b.Consequent) &&
		a.Support == b.Support && a.AntSupport == b.AntSupport && a.ConSupport == b.ConSupport &&
		math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence) &&
		math.Float64bits(a.Lift) == math.Float64bits(b.Lift)
}

// Memoized evaluation must be indistinguishable from counting afresh,
// on the first evaluation of a rule and on every repeat.
func TestEvaluatorMatchesEvaluateRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		db, drugs, reacs := randomDB(rng, 3+rng.Intn(6), 1+rng.Intn(4), 10+rng.Intn(60), 0.2+0.5*rng.Float64())
		ev := NewEvaluator(db)
		for i := 0; i < 200; i++ {
			a, b := randomSubset(rng, drugs), randomSubset(rng, reacs)
			want := Evaluate(db, a, b)
			if got := ev.Evaluate(a, b); !sameMeasures(got, want) {
				t.Fatalf("trial %d: %s memoized %+v, counted %+v", trial, want.Key(), got, want)
			}
		}
	}
}

// FromItemsets takes each rule's support from its mined itemset; the
// rules must equal ones evaluated from scratch.
func TestFromItemsetsMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		db, _, _ := randomDB(rng, 5, 3, 40, 0.4)
		closed := lcm.MineClosed(db, lcm.Options{MinSupport: 2})
		rules, _ := FromItemsets(NewEvaluator(db), closed, GenOptions{MinDrugs: 1})
		if len(rules) == 0 {
			t.Fatalf("trial %d: no rules", trial)
		}
		for _, r := range rules {
			if want := Evaluate(db, r.Antecedent, r.Consequent); !sameMeasures(r, want) {
				t.Fatalf("trial %d: %s generated %+v, counted %+v", trial, r.Key(), r, want)
			}
		}
	}
}

func TestEvaluatorMemo(t *testing.T) {
	db, m := fixture(t)
	A, W, Z := m["ASPIRIN"], m["WARFARIN"], m["ZOMETA"]
	bl, na := m["Haemorrhage"], m["Nausea"]

	ev := NewEvaluator(db)
	if len(ev.memo) != 0 {
		t.Fatalf("new evaluator holds %d supports", len(ev.memo))
	}
	// Singletons are answered from posting lengths, not memoized.
	if got := ev.Support(types.NewItemset(A)); got != db.Support(types.NewItemset(A)) {
		t.Errorf("singleton support = %d", got)
	}
	if len(ev.memo) != 0 {
		t.Errorf("singleton support was memoized")
	}

	// A,W => bleed,nausea memoizes the antecedent and the union; the
	// two-reaction consequent too.
	ev.Evaluate(types.NewItemset(A, W), types.NewItemset(bl, na))
	if len(ev.memo) != 3 {
		t.Fatalf("memo holds %d supports after one rule, want 3", len(ev.memo))
	}
	// Repeats, and rules sharing the antecedent or consequent, count
	// nothing new for the shared parts.
	ev.Evaluate(types.NewItemset(A, W), types.NewItemset(bl, na))
	if len(ev.memo) != 3 {
		t.Errorf("repeated rule grew the memo to %d", len(ev.memo))
	}
	ev.Evaluate(types.NewItemset(A, W), types.NewItemset(bl))
	if len(ev.memo) != 4 { // only {A,W,bl} is new
		t.Errorf("shared antecedent: memo %d, want 4", len(ev.memo))
	}
	ev.Evaluate(types.NewItemset(A, Z), types.NewItemset(bl, na))
	if len(ev.memo) != 6 { // {A,Z} and {A,Z,bl,na} are new
		t.Errorf("shared consequent: memo %d, want 6", len(ev.memo))
	}

	// A planted memo entry is what lookups return: the shared parts
	// really are served from the memo, not recounted.
	key := string(itemKey(nil, types.NewItemset(A, W)))
	ev.memo[key] = 99
	if got := ev.Evaluate(types.NewItemset(A, W), types.NewItemset(na)); got.AntSupport != 99 {
		t.Errorf("antecedent support %d not served from the memo", got.AntSupport)
	}

	// A new evaluator starts empty and counts exactly.
	fresh := NewEvaluator(db)
	if len(fresh.memo) != 0 {
		t.Errorf("new evaluator holds %d supports", len(fresh.memo))
	}
	if got := fresh.Evaluate(types.NewItemset(A, W), types.NewItemset(na)); got.AntSupport != 3 {
		t.Errorf("fresh evaluator antecedent support = %d, want 3", got.AntSupport)
	}
}

// FromItemsets remembers each generated rule's complete-itemset
// support, so a contextual rule asking for it later is a memo hit.
func TestFromItemsetsSeedsMemo(t *testing.T) {
	db, _ := fixture(t)
	closed := lcm.MineClosed(db, lcm.Options{MinSupport: 1})
	ev := NewEvaluator(db)
	rules, _ := FromItemsets(ev, closed, GenOptions{MinDrugs: 2})
	for _, r := range rules {
		key := string(itemKey(nil, r.Complete()))
		if sup, ok := ev.memo[key]; !ok || sup != r.Support {
			t.Errorf("%s: memo has %d (present %v), want %d", r.Key(), sup, ok, r.Support)
		}
	}
}

// Rule generation on four workers must return the rules one worker
// returns, in the same order, made from the same itemsets, and leave
// the same supports in ev's memo, whether ev starts empty or already
// holds counts.
func TestFromItemsetsSameAcrossWorkers(t *testing.T) {
	for _, c := range []struct {
		name   string
		opts   GenOptions
		seeded bool
	}{
		{"all", GenOptions{MinDrugs: 1}, false},
		{"multi-drug", GenOptions{MinDrugs: 2}, false},
		{"bounded", GenOptions{MinDrugs: 2, MaxDrugs: 3}, false},
		{"min-confidence", GenOptions{MinDrugs: 1, MinConfidence: 0.5}, false},
		{"seeded memo", GenOptions{MinDrugs: 2}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			for trial := 0; trial < 5; trial++ {
				db, drugs, reacs := randomDB(rng, 6+rng.Intn(4), 2+rng.Intn(3), 40+rng.Intn(40), 0.3+0.3*rng.Float64())
				closed := lcm.MineClosed(db, lcm.Options{MinSupport: 2})
				var seed [][2]types.Itemset
				if c.seeded {
					for i := 0; i < 10; i++ {
						seed = append(seed, [2]types.Itemset{randomSubset(rng, drugs), randomSubset(rng, reacs)})
					}
				}
				gen := func(workers int) ([]Rule, []int32, *Evaluator) {
					ev := NewEvaluator(db)
					for _, q := range seed {
						ev.Evaluate(q[0], q[1])
					}
					rules, from := fromItemsets(ev, closed, c.opts, workers)
					return rules, from, ev
				}
				serial, sfrom, sev := gen(1)
				parallel, pfrom, pev := gen(4)
				if c.opts.MinConfidence == 0 && len(serial) < 16 {
					t.Fatalf("trial %d: %d rules, too few to split over four workers", trial, len(serial))
				}
				if len(parallel) != len(serial) {
					t.Fatalf("trial %d: %d rules on four workers, %d on one", trial, len(parallel), len(serial))
				}
				for i := range serial {
					if !sameMeasures(serial[i], parallel[i]) {
						t.Fatalf("trial %d rule %d: four workers %+v, one %+v", trial, i, parallel[i], serial[i])
					}
					// Each rule names the itemset it was made from.
					if pfrom[i] != sfrom[i] || !serial[i].Complete().Equal(closed[sfrom[i]].Items) || serial[i].Support != closed[sfrom[i]].Support {
						t.Fatalf("trial %d rule %d (%v): made from set %d on four workers, %d (%v) on one",
							trial, i, serial[i].Complete(), pfrom[i], sfrom[i], closed[sfrom[i]].Items)
					}
				}
				if !reflect.DeepEqual(pev.memo, sev.memo) {
					t.Fatalf("trial %d: memo holds %d supports after four workers, %d after one", trial, len(pev.memo), len(sev.memo))
				}
			}
		})
	}
}

// Forks of one evaluator, counting concurrently over a parent memo
// seeded by rule generation, must answer exactly what counting afresh
// does, and must never write the parent.
func TestEvaluatorForkMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		db, drugs, reacs := randomDB(rng, 3+rng.Intn(6), 1+rng.Intn(4), 10+rng.Intn(60), 0.2+0.5*rng.Float64())
		ev := NewEvaluator(db)
		FromItemsets(ev, lcm.MineClosed(db, lcm.Options{MinSupport: 2}), GenOptions{MinDrugs: 1})
		for i := 0; i < 20; i++ {
			ev.Evaluate(randomSubset(rng, drugs), randomSubset(rng, reacs))
		}
		base := len(ev.memo)

		const forks = 4
		queries := make([][][2]types.Itemset, forks)
		for f := range queries {
			for i := 0; i < 100; i++ {
				queries[f] = append(queries[f], [2]types.Itemset{randomSubset(rng, drugs), randomSubset(rng, reacs)})
			}
		}
		errs := make(chan string, forks)
		for f := range queries {
			fork := ev.Fork()
			go func() {
				defer func() { errs <- "" }()
				for _, q := range queries[f] {
					want := Evaluate(db, q[0], q[1])
					if got := fork.Evaluate(q[0], q[1]); !sameMeasures(got, want) {
						errs <- fmt.Sprintf("trial %d fork %d: %s forked %+v, counted %+v", trial, f, want.Key(), got, want)
						return
					}
				}
			}()
		}
		for range forks {
			if msg := <-errs; msg != "" {
				t.Fatal(msg)
			}
		}
		if len(ev.memo) != base {
			t.Fatalf("trial %d: parent memo grew from %d to %d under forks", trial, base, len(ev.memo))
		}
	}
}

// A fork serves the parent's memo and keeps what it counts to itself.
func TestEvaluatorForkReadsBase(t *testing.T) {
	db, m := fixture(t)
	A, W, Z := m["ASPIRIN"], m["WARFARIN"], m["ZOMETA"]
	bl := m["Haemorrhage"]

	ev := NewEvaluator(db)
	ev.Evaluate(types.NewItemset(A, W), types.NewItemset(bl))
	ev.memo[string(itemKey(nil, types.NewItemset(A, W)))] = 99
	base := len(ev.memo)

	fork := ev.Fork()
	if got := fork.Evaluate(types.NewItemset(A, W), types.NewItemset(bl)); got.AntSupport != 99 {
		t.Errorf("fork antecedent support %d not served from the parent memo", got.AntSupport)
	}
	if len(fork.memo) != 0 {
		t.Errorf("fork memoized %d supports the parent already held", len(fork.memo))
	}
	fork.Evaluate(types.NewItemset(A, Z), types.NewItemset(bl))
	if len(fork.memo) != 2 { // {A,Z} and {A,Z,bl}
		t.Errorf("fork memo %d after a new rule, want 2", len(fork.memo))
	}
	if len(ev.memo) != base {
		t.Errorf("parent memo grew from %d to %d", base, len(ev.memo))
	}
}

// TestEvaluatorSupportNoAllocs pins that the Evaluator counts through
// txdb's Support, which builds no TID list. On 640 transactions
// (bitmaps from 20 occurrences), on the sparse (galloping), mixed (bit
// probe) and all-dense (popcount) paths, a memo hit allocates nothing
// and a miss allocates only the memo's copy of the key.
func TestEvaluatorSupportNoAllocs(t *testing.T) {
	// item(k) occurs in every k-th transaction.
	dict := types.NewDictionary()
	every := []int{64, 53, 2, 3, 5} // supports 10, 13, 320, 214, 128
	item := func(k int) types.Item { return dict.Intern(fmt.Sprintf("D%d", k), types.DomainDrug) }
	db := txdb.New(dict)
	for r := 0; r < 640; r++ {
		var items types.Itemset
		for _, k := range every {
			if r%k == 0 {
				items = append(items, item(k))
			}
		}
		db.Add(fmt.Sprintf("t%d", r), items)
	}
	db.Freeze()
	sets := map[string]types.Itemset{
		"sparse": types.NewItemset(item(64), item(53)),
		"mixed":  types.NewItemset(item(53), item(2), item(3)),
		"dense":  types.NewItemset(item(2), item(3), item(5)),
	}
	e := NewEvaluator(db)
	for name, set := range sets {
		want := db.Support(set)
		if got := e.Support(set); got != want {
			t.Fatalf("%s: Evaluator.Support = %d, DB.Support %d", name, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { e.Support(set) }); allocs != 0 {
			t.Errorf("%s: memo hit allocated %.1f times per call, want 0", name, allocs)
		}
		key := string(itemKey(nil, set))
		miss := testing.AllocsPerRun(100, func() {
			delete(e.memo, key)
			e.Support(set)
		})
		if miss != 1 {
			t.Errorf("%s: memo miss allocated %.1f times per call, want 1 (the memo key)", name, miss)
		}
	}
}
