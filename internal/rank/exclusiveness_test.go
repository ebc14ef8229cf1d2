package rank

import (
	"fmt"
	"math"
	"testing"

	"maras/internal/assoc"
	"maras/internal/mcac"
	"maras/internal/txdb"
	"maras/internal/types"
)

// makeCluster fabricates a cluster with the given target confidence
// and level confidence vectors (levels listed highest-cardinality
// first, as mcac.Build produces). Lift values are set equal to
// confidence so lift-based tests are predictable.
func makeCluster(n int, targetConf float64, levels ...[]float64) mcac.Cluster {
	ant := make(types.Itemset, n)
	for i := range ant {
		ant[i] = types.Item(i)
	}
	c := mcac.Cluster{
		Target: assoc.Rule{
			Antecedent: ant,
			Consequent: types.Itemset{types.Item(100)},
			Confidence: targetConf,
			Lift:       targetConf,
			Support:    10,
		},
	}
	card := n - 1
	for _, vals := range levels {
		l := mcac.Level{Cardinality: card}
		for j, v := range vals {
			sub := make(types.Itemset, card)
			for i := range sub {
				sub[i] = types.Item(i + j) // distinct-ish antecedents
			}
			l.Rules = append(l.Rules, assoc.Rule{
				Antecedent: sub,
				Consequent: c.Target.Consequent,
				Confidence: v,
				Lift:       v,
			})
		}
		c.Levels = append(c.Levels, l)
		card--
	}
	return c
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestLinearDecay(t *testing.T) {
	// Paper: weight for level k of an n-drug rule is 1 − (k−1)/n.
	if !approx(LinearDecay(1, 3), 1.0) {
		t.Errorf("LinearDecay(1,3) = %v", LinearDecay(1, 3))
	}
	if !approx(LinearDecay(2, 3), 1.0-1.0/3.0) {
		t.Errorf("LinearDecay(2,3) = %v", LinearDecay(2, 3))
	}
	if LinearDecay(1, 4) <= LinearDecay(3, 4) {
		t.Error("decay should decrease with k")
	}
}

func TestOtherDecays(t *testing.T) {
	if !approx(NoDecay(3, 5), 1) {
		t.Error("NoDecay != 1")
	}
	if !approx(ExpDecay(1, 5), 1) || !approx(ExpDecay(3, 5), 0.25) {
		t.Error("ExpDecay wrong")
	}
}

func TestExclusivenessSimpleHandComputed(t *testing.T) {
	// n=2, one level (k=1) with confidences {0.2, 0.4}; target p=0.9.
	// Formula 3.5: (1/1) · (0.9 − 0.3) · f_d(1) · (1 − θ·Cv).
	// θ=0 ⇒ 0.6 · 1 · 1 = 0.6.
	c := makeCluster(2, 0.9, []float64{0.2, 0.4})
	got := Exclusiveness(&c, Options{Theta: 0})
	if !approx(got, 0.6) {
		t.Errorf("Exclusiveness = %v, want 0.6", got)
	}
}

func TestExclusivenessThetaPenalty(t *testing.T) {
	// Same cluster; mean=0.3, σ=0.1, Cv=1/3.
	// θ=1 ⇒ 0.6 · (1 − 1/3) = 0.4.
	c := makeCluster(2, 0.9, []float64{0.2, 0.4})
	got := Exclusiveness(&c, Options{Theta: 1})
	if !approx(got, 0.4) {
		t.Errorf("Exclusiveness(θ=1) = %v, want 0.4", got)
	}
	// Uniform context (no variation) is not penalized at any θ.
	u := makeCluster(2, 0.9, []float64{0.3, 0.3})
	if !approx(Exclusiveness(&u, Options{Theta: 1}), Exclusiveness(&u, Options{Theta: 0})) {
		t.Error("θ penalized a zero-variance context")
	}
}

func TestExclusivenessTwoLevelHandComputed(t *testing.T) {
	// n=3, levels: k=2 {0.5}, k=1 {0.1, 0.3}; p=0.8; θ=0, linear decay.
	// k=2 term: (0.8−0.5)·(1−1/3) = 0.3·(2/3) = 0.2
	// k=1 term: (0.8−0.2)·1       = 0.6
	// score = (0.2+0.6)/2 = 0.4
	c := makeCluster(3, 0.8, []float64{0.5}, []float64{0.1, 0.3})
	got := Exclusiveness(&c, Options{Theta: 0})
	if !approx(got, 0.4) {
		t.Errorf("Exclusiveness = %v, want 0.4", got)
	}
}

func TestExclusivenessNoContext(t *testing.T) {
	c := makeCluster(2, 0.9)
	if got := Exclusiveness(&c, Options{}); got != 0 {
		t.Errorf("no-context score = %v, want 0", got)
	}
}

func TestExclusivenessDominatedIsNegative(t *testing.T) {
	// A sub-rule explains the ADR better than the combination: the
	// cluster must score below an exclusive one, and below zero.
	dominated := makeCluster(2, 0.5, []float64{0.9, 0.8})
	exclusive := makeCluster(2, 0.9, []float64{0.05, 0.1})
	sd := Exclusiveness(&dominated, Options{})
	se := Exclusiveness(&exclusive, Options{})
	if sd >= 0 {
		t.Errorf("dominated cluster score = %v, want negative", sd)
	}
	if se <= sd {
		t.Errorf("exclusive (%v) should outrank dominated (%v)", se, sd)
	}
}

func TestExclusivenessFlatMatchesPaperFormula(t *testing.T) {
	// Formula 3.3: p − mean over the whole context, flat.
	c := makeCluster(3, 0.8, []float64{0.5}, []float64{0.1, 0.3})
	got := ExclusivenessFlat(&c, Options{Theta: 0})
	want := 0.8 - (0.5+0.1+0.3)/3
	if !approx(got, want) {
		t.Errorf("flat = %v, want %v", got, want)
	}
	// θ>0 penalizes the high-variance context (Formula 3.4).
	withTheta := ExclusivenessFlat(&c, Options{Theta: 1})
	if withTheta >= got {
		t.Errorf("θ penalty missing: %v >= %v", withTheta, got)
	}
}

func TestImprovement(t *testing.T) {
	// improvement = min over subrules of p − conf(sub).
	c := makeCluster(3, 0.8, []float64{0.5}, []float64{0.1, 0.3})
	if got := Improvement(&c); !approx(got, 0.8-0.5) {
		t.Errorf("Improvement = %v, want 0.3", got)
	}
	neg := makeCluster(2, 0.4, []float64{0.7})
	if got := Improvement(&neg); got >= 0 {
		t.Errorf("dominated improvement = %v, want negative", got)
	}
	empty := makeCluster(2, 0.9)
	if got := Improvement(&empty); got != 0 {
		t.Errorf("no-context improvement = %v", got)
	}
}

func TestThetaClamping(t *testing.T) {
	c := makeCluster(2, 0.9, []float64{0.2, 0.4})
	if !approx(Exclusiveness(&c, Options{Theta: -5}), Exclusiveness(&c, Options{Theta: 0})) {
		t.Error("negative θ not clamped")
	}
	if !approx(Exclusiveness(&c, Options{Theta: 7}), Exclusiveness(&c, Options{Theta: 1})) {
		t.Error("θ>1 not clamped")
	}
}

func TestLiftMeasureContrast(t *testing.T) {
	// With lift selected, the score is the raw lift contrast: a rule
	// whose combination lift towers over its sub-rule lifts scores
	// higher than one whose sub-rules share the lift.
	exclusive := makeCluster(2, 0.9, []float64{0.0, 0.0})
	exclusive.Target.Lift = 50
	dominated := makeCluster(2, 0.9, []float64{0.0, 0.0})
	dominated.Target.Lift = 50
	for i := range dominated.Levels[0].Rules {
		dominated.Levels[0].Rules[i].Lift = 48
	}
	se := Exclusiveness(&exclusive, Options{Measure: assoc.MeasureLift})
	sd := Exclusiveness(&dominated, Options{Measure: assoc.MeasureLift})
	if se <= sd {
		t.Errorf("lift contrast: exclusive %v <= dominated %v", se, sd)
	}
	if se <= 0 {
		t.Errorf("exclusive lift score = %v, want positive", se)
	}
}

func TestMeanCV(t *testing.T) {
	mean, cv := meanCV([]float64{2, 4})
	if !approx(mean, 3) || !approx(cv, 1.0/3.0) {
		t.Errorf("meanCV = %v, %v", mean, cv)
	}
	mean, cv = meanCV(nil)
	if mean != 0 || cv != 0 {
		t.Error("empty meanCV should be 0,0")
	}
	mean, cv = meanCV([]float64{0, 0})
	if mean != 0 || cv != 0 {
		t.Error("zero-mean meanCV should be 0,0")
	}
}

func TestRankOrdersByScore(t *testing.T) {
	clusters := []mcac.Cluster{
		makeCluster(2, 0.3, []float64{0.6, 0.7}), // dominated
		makeCluster(2, 0.95, []float64{0.05, 0.1}),
		makeCluster(2, 0.6, []float64{0.3, 0.2}),
	}
	ranked := Rank(clusters, ByExclusivenessConf, Options{})
	if len(ranked) != 3 {
		t.Fatalf("ranked %d", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Fatalf("not sorted desc at %d", i)
		}
	}
	if !approx(ranked[0].Cluster.Target.Confidence, 0.95) {
		t.Errorf("top cluster should be the exclusive one, got conf %v", ranked[0].Cluster.Target.Confidence)
	}
}

func TestRankMethods(t *testing.T) {
	clusters := []mcac.Cluster{
		makeCluster(2, 0.5, []float64{0.1, 0.1}),
		makeCluster(2, 0.9, []float64{0.85, 0.85}),
	}
	byConf := Rank(clusters, ByConfidence, Options{})
	if !approx(byConf[0].Cluster.Target.Confidence, 0.9) {
		t.Error("ByConfidence should put 0.9 first")
	}
	byExcl := Rank(clusters, ByExclusivenessConf, Options{})
	if !approx(byExcl[0].Cluster.Target.Confidence, 0.5) {
		t.Error("ByExclusiveness should put exclusive 0.5 first")
	}
	byImp := Rank(clusters, ByImprovement, Options{})
	if !approx(byImp[0].Cluster.Target.Confidence, 0.5) {
		t.Error("ByImprovement should put exclusive 0.5 first")
	}
	byLift := Rank(clusters, ByLift, Options{})
	if !approx(byLift[0].Cluster.Target.Lift, 0.9) {
		t.Error("ByLift should put higher lift first")
	}
}

func TestMethodNames(t *testing.T) {
	names := map[Method]string{
		ByConfidence:        "Confidence",
		ByLift:              "Lift",
		ByExclusivenessConf: "Exclusiveness with Confidence",
		ByExclusivenessLift: "Exclusiveness with Lift",
		ByImprovement:       "Improvement",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

// End-to-end property on a real DB: a planted interaction whose drugs
// rarely cause the ADR alone must outrank a combination dominated by
// one drug.
func TestExclusivenessEndToEnd(t *testing.T) {
	dict := types.NewDictionary()
	d := func(s string) types.Item { return dict.Intern(s, types.DomainDrug) }
	a := func(s string) types.Item { return dict.Intern(s, types.DomainReaction) }
	x, y := d("X"), d("Y")
	u, v := d("U"), d("V")
	bad := a("Bad")
	meh := a("Meh")

	db := txdb.New(dict)
	id := 0
	add := func(items ...types.Item) {
		id++
		db.Add(fmt.Sprintf("r%d", id), types.NewItemset(items...))
	}
	// True interaction: X+Y -> Bad; X or Y alone -> almost never Bad.
	for i := 0; i < 10; i++ {
		add(x, y, bad)
	}
	for i := 0; i < 20; i++ {
		add(x, meh)
		add(y, meh)
	}
	// Dominated pair: U alone already causes Bad.
	for i := 0; i < 10; i++ {
		add(u, v, bad)
		add(u, bad)
	}
	db.Freeze()

	tXY := assoc.Evaluate(db, types.NewItemset(x, y), types.NewItemset(bad))
	tUV := assoc.Evaluate(db, types.NewItemset(u, v), types.NewItemset(bad))
	cXY := mcac.Build(assoc.NewEvaluator(db), tXY)
	cUV := mcac.Build(assoc.NewEvaluator(db), tUV)

	sXY := Exclusiveness(&cXY, Options{})
	sUV := Exclusiveness(&cUV, Options{})
	if sXY <= sUV {
		t.Errorf("true interaction (%v) should outrank dominated pair (%v)", sXY, sUV)
	}
}
