package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"maras/internal/assoc"
	"maras/internal/faers"
	"maras/internal/lcm"
	"maras/internal/mcac"
	"maras/internal/rank"
	"maras/internal/synth"
	"maras/internal/txdb"
	"maras/internal/types"
)

// referenceRanking computes the ranked clusters of a run naively, for
// corpora too large for the oracle's 2^n enumeration: the closed sets
// of lcm.MineClosed (held to a by-definition oracle by FuzzMineClosed),
// every rule measure counted afresh with assoc.Evaluate, and each
// cluster's context built subset by subset without a shared support
// memo.
func referenceRanking(t *testing.T, reports []faers.Report, opts Options) (*txdb.DB, []rank.Ranked) {
	t.Helper()
	db, _, err := EncodeReports(reports, opts)
	if err != nil {
		t.Fatal(err)
	}
	dict := db.Dict()
	closed := lcm.MineClosed(db, lcm.Options{MinSupport: opts.MinSupport, MaxLen: opts.MaxItems})

	var targets []assoc.Rule
	for _, fs := range closed {
		drugs, reacs := dict.SplitDomains(fs.Items)
		if len(drugs) < opts.MinDrugs || len(reacs) == 0 {
			continue
		}
		if opts.MaxDrugs > 0 && len(drugs) > opts.MaxDrugs {
			continue
		}
		targets = append(targets, assoc.Evaluate(db, drugs, reacs))
	}
	sort.Slice(targets, func(i, j int) bool {
		if targets[i].Support != targets[j].Support {
			return targets[i].Support > targets[j].Support
		}
		return targets[i].Key() < targets[j].Key()
	})

	clusters := make([]mcac.Cluster, 0, len(targets))
	for _, target := range targets {
		n := len(target.Antecedent)
		byCard := make(map[int][]assoc.Rule)
		target.Antecedent.ProperSubsets(func(sub types.Itemset) bool {
			byCard[len(sub)] = append(byCard[len(sub)], assoc.Evaluate(db, sub.Clone(), target.Consequent))
			return true
		})
		c := mcac.Cluster{Target: target}
		for k := n - 1; k >= 1; k-- {
			rules := byCard[k]
			sort.Slice(rules, func(i, j int) bool {
				if rules[i].Confidence != rules[j].Confidence {
					return rules[i].Confidence > rules[j].Confidence
				}
				return rules[i].Key() < rules[j].Key()
			})
			c.Levels = append(c.Levels, mcac.Level{Cardinality: k, Rules: rules})
		}
		clusters = append(clusters, c)
	}
	ranked := rank.Rank(clusters, opts.Method, rank.Options{Theta: opts.Theta, Decay: opts.Decay})
	if opts.TopK > 0 && len(ranked) > opts.TopK {
		ranked = ranked[:opts.TopK]
	}
	return db, ranked
}

// checkAgainstReference runs the pipeline and compares it signal for
// signal with referenceRanking: rank, score (bitwise), names, target
// measures and every contextual rule of every level.
func checkAgainstReference(t *testing.T, label string, reports []faers.Report, opts Options) int {
	t.Helper()
	a, err := Run(reports, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	db, want := referenceRanking(t, reports, opts)
	if len(a.Signals) != len(want) {
		t.Fatalf("%s: %d signals, reference %d", label, len(a.Signals), len(want))
	}
	dict := db.Dict()
	for i, s := range a.Signals {
		w := want[i]
		where := fmt.Sprintf("%s: signal %d (%s)", label, i+1, s.Key())
		if s.Rank != i+1 {
			t.Fatalf("%s: rank %d", where, s.Rank)
		}
		if math.Float64bits(s.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: score %v, reference %v", where, s.Score, w.Score)
		}
		if got, exp := fmt.Sprint(s.Drugs), fmt.Sprint(dict.SortedNames(w.Cluster.Target.Antecedent)); got != exp {
			t.Fatalf("%s: drugs %s, reference %s", where, got, exp)
		}
		if got, exp := fmt.Sprint(s.Reactions), fmt.Sprint(dict.SortedNames(w.Cluster.Target.Consequent)); got != exp {
			t.Fatalf("%s: reactions %s, reference %s", where, got, exp)
		}
		tgt := w.Cluster.Target
		if s.Support != tgt.Support ||
			math.Float64bits(s.Confidence) != math.Float64bits(tgt.Confidence) ||
			math.Float64bits(s.Lift) != math.Float64bits(tgt.Lift) {
			t.Fatalf("%s: measures sup=%d conf=%v lift=%v, reference sup=%d conf=%v lift=%v",
				where, s.Support, s.Confidence, s.Lift, tgt.Support, tgt.Confidence, tgt.Lift)
		}
		if err := sameRule(s.Cluster.Target, tgt); err != nil {
			t.Fatalf("%s: target %v", where, err)
		}
		if len(s.Cluster.Levels) != len(w.Cluster.Levels) {
			t.Fatalf("%s: %d levels, reference %d", where, len(s.Cluster.Levels), len(w.Cluster.Levels))
		}
		for k, l := range s.Cluster.Levels {
			wl := w.Cluster.Levels[k]
			if l.Cardinality != wl.Cardinality || len(l.Rules) != len(wl.Rules) {
				t.Fatalf("%s: level %d is %d×%d rules, reference %d×%d",
					where, k, l.Cardinality, len(l.Rules), wl.Cardinality, len(wl.Rules))
			}
			for j := range l.Rules {
				if err := sameRule(l.Rules[j], wl.Rules[j]); err != nil {
					t.Fatalf("%s: level %d rule %d: %v", where, l.Cardinality, j, err)
				}
			}
		}
	}
	return len(a.Signals)
}

// sameRule reports how got differs from want, comparing ratios
// bitwise.
func sameRule(got, want assoc.Rule) error {
	if !got.Antecedent.Equal(want.Antecedent) || !got.Consequent.Equal(want.Consequent) ||
		got.Support != want.Support || got.AntSupport != want.AntSupport || got.ConSupport != want.ConSupport ||
		math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) ||
		math.Float64bits(got.Lift) != math.Float64bits(want.Lift) {
		return fmt.Errorf("%+v, reference %+v", got, want)
	}
	return nil
}

// TestRunMatchesReferenceOnSyntheticQuarter: the default pipeline (LCM
// closed sets, memoized supports) ranks a synthetic quarter exactly as
// the reference does, with and without the length cap.
func TestRunMatchesReferenceOnSyntheticQuarter(t *testing.T) {
	sc := synth.DefaultConfig("2014Q1", 3)
	sc.Reports = 2500
	q, _, err := synth.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	reports := q.Reports()
	for _, minsup := range []int{4, 8} {
		for _, maxItems := range []int{10, 0} {
			opts := NewOptions()
			opts.MinSupport = minsup
			opts.MaxItems = maxItems
			opts.TopK = 0
			label := fmt.Sprintf("minsup=%d maxItems=%d", minsup, maxItems)
			if n := checkAgainstReference(t, label, reports, opts); n == 0 {
				t.Errorf("%s: no signals to compare", label)
			}
		}
	}
}

// TestRunMatchesReferenceRandom holds the pipeline to the
// by-definition oracle on small random corpora of long reports, where
// closed sets routinely exceed the length cap and the bounded closed
// subsets carry the rule base, under both exclusiveness measures and
// θ ∈ {0, 0.5, 1}. Every third report has a severe outcome.
func TestRunMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	capped, signals := 0, 0
	for trial := 0; trial < 25; trial++ {
		density := 0.3 + 0.5*rng.Float64()
		var reports []faers.Report
		for i := 0; i < 15+rng.Intn(30); i++ {
			// Report IDs ascend with the reports in even trials and
			// descend in odd ones, so a signal's must be sorted.
			id := 100 + i
			if trial%2 == 1 {
				id = 999 - i
			}
			r := faers.Report{
				PrimaryID:  fmt.Sprintf("%d", id),
				CaseID:     fmt.Sprintf("C%d", i),
				ReportCode: "EXP",
			}
			if i%3 == 0 {
				r.Outcomes = []string{"HO"}
			}
			for _, d := range oracleDrugs {
				if rng.Float64() < density {
					r.Drugs = append(r.Drugs, d)
				}
			}
			for _, x := range oracleReactions {
				if rng.Float64() < density {
					r.Reactions = append(r.Reactions, x)
				}
			}
			reports = append(reports, r)
		}
		opts := NewOptions()
		opts.MinSupport = 1 + rng.Intn(3)
		opts.MaxItems = []int{0, 3, 4, 5, 10}[rng.Intn(5)]
		opts.TopK = 0
		for _, method := range []rank.Method{rank.ByExclusivenessConf, rank.ByExclusivenessLift} {
			for _, theta := range []float64{0, 0.5, 1} {
				opts.Method, opts.Theta = method, theta
				label := fmt.Sprintf("trial %d (minsup=%d maxItems=%d %v θ=%v)",
					trial, opts.MinSupport, opts.MaxItems, method, theta)
				signals += checkAgainstOracle(t, label, reports, opts)
			}
		}
		if opts.MaxItems > 0 && longestClosed(t, reports, opts) > opts.MaxItems {
			capped++
		}
	}
	if capped < 5 || signals == 0 {
		t.Errorf("%d trials had closed sets longer than the cap and %d signals compared; the corpora are too easy", capped, signals)
	}
}

// longestClosed returns the length of the longest closed frequent
// itemset of the encoded reports, ignoring the length cap.
func longestClosed(t *testing.T, reports []faers.Report, opts Options) int {
	t.Helper()
	db, _, err := EncodeReports(reports, opts)
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, fs := range lcm.MineClosed(db, lcm.Options{MinSupport: opts.MinSupport}) {
		longest = max(longest, len(fs.Items))
	}
	return longest
}
