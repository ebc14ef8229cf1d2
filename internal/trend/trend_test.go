package trend

import (
	"fmt"
	"testing"

	"maras/internal/core"
	"maras/internal/faers"
)

// makeQuarter builds a quarter where pair X+Y -> Bad appears n times,
// plus fixed background.
func makeQuarter(label string, n int) *faers.Quarter {
	q := &faers.Quarter{Label: label}
	id := 0
	add := func(drugs []string, reacs []string) {
		id++
		pid := fmt.Sprintf("%s-%d", label, id)
		q.Demos = append(q.Demos, faers.Demo{
			PrimaryID: pid, CaseID: pid, ReportCode: "EXP",
		})
		for i, d := range drugs {
			q.Drugs = append(q.Drugs, faers.Drug{PrimaryID: pid, Seq: i + 1, RoleCode: "PS", Name: d})
		}
		for _, r := range reacs {
			q.Reacs = append(q.Reacs, faers.Reac{PrimaryID: pid, Term: r})
		}
	}
	for i := 0; i < n; i++ {
		add([]string{"DRUGX", "DRUGY"}, []string{"Bad"})
	}
	for i := 0; i < 20; i++ {
		add([]string{"DRUGX"}, []string{"Meh"})
		add([]string{"DRUGY"}, []string{"Meh"})
	}
	// A persistent second pair.
	for i := 0; i < 6; i++ {
		add([]string{"DRUGP", "DRUGQ"}, []string{"Worse"})
	}
	for i := 0; i < 10; i++ {
		add([]string{"DRUGP"}, []string{"Meh"})
		add([]string{"DRUGQ"}, []string{"Meh"})
	}
	return q
}

func trendOpts() core.Options {
	opts := core.NewOptions()
	opts.MinSupport = 4
	opts.TopK = 0
	return opts
}

func TestRunEmergingSignal(t *testing.T) {
	// X+Y below threshold in Q1/Q2, above in Q3/Q4 -> emerging.
	quarters := []*faers.Quarter{
		makeQuarter("2014Q1", 0),
		makeQuarter("2014Q2", 2),
		makeQuarter("2014Q3", 8),
		makeQuarter("2014Q4", 10),
	}
	a, err := Run(quarters, trendOpts())
	if err != nil {
		t.Fatal(err)
	}
	xy := a.Find("DRUGX+DRUGY")
	if xy == nil {
		t.Fatal("X+Y trajectory missing")
	}
	if got := xy.Classify(); got != Emerging {
		t.Errorf("X+Y class = %q, want emerging (points %+v)", got, xy.Points)
	}
	if got := xy.EmergedAt(); got != "2014Q3" {
		t.Errorf("EmergedAt = %q, want 2014Q3", got)
	}
	if xy.Quarters() != 2 {
		t.Errorf("Quarters = %d, want 2", xy.Quarters())
	}
	if xy.PeakSupport() != 10 {
		t.Errorf("PeakSupport = %d, want 10", xy.PeakSupport())
	}
}

func TestRunPersistentSignal(t *testing.T) {
	quarters := []*faers.Quarter{
		makeQuarter("2014Q1", 8),
		makeQuarter("2014Q2", 8),
	}
	a, err := Run(quarters, trendOpts())
	if err != nil {
		t.Fatal(err)
	}
	pq := a.Find("DRUGP+DRUGQ")
	if pq == nil {
		t.Fatal("P+Q missing")
	}
	if pq.Classify() != Persistent {
		t.Errorf("P+Q class = %q, want persistent", pq.Classify())
	}
}

func TestRunTransientSignal(t *testing.T) {
	quarters := []*faers.Quarter{
		makeQuarter("2014Q1", 8),
		makeQuarter("2014Q2", 0),
	}
	a, err := Run(quarters, trendOpts())
	if err != nil {
		t.Fatal(err)
	}
	xy := a.Find("DRUGX+DRUGY")
	if xy == nil {
		t.Fatal("X+Y missing")
	}
	if xy.Classify() != Transient {
		t.Errorf("X+Y class = %q, want transient", xy.Classify())
	}
}

func TestByClassPartition(t *testing.T) {
	quarters := []*faers.Quarter{
		makeQuarter("2014Q1", 8),
		makeQuarter("2014Q2", 0),
	}
	a, err := Run(quarters, trendOpts())
	if err != nil {
		t.Fatal(err)
	}
	byClass := a.ByClass()
	total := 0
	for _, list := range byClass {
		total += len(list)
	}
	if total != len(a.Trajectories) {
		t.Errorf("partition loses trajectories: %d vs %d", total, len(a.Trajectories))
	}
}

func TestTrajectoriesSorted(t *testing.T) {
	quarters := []*faers.Quarter{makeQuarter("2014Q1", 8)}
	a, err := Run(quarters, trendOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(a.Trajectories); i++ {
		if a.Trajectories[i].PeakSupport() > a.Trajectories[i-1].PeakSupport() {
			t.Fatal("not sorted by peak support")
		}
	}
}

func TestRunEmpty(t *testing.T) {
	if _, err := Run(nil, trendOpts()); err == nil {
		t.Error("no quarters accepted")
	}
}

func TestFindMissing(t *testing.T) {
	a := &Analysis{}
	if a.Find("NO+PE") != nil {
		t.Error("Find on empty analysis should be nil")
	}
}

// findByScan is the by-definition Find: the first trajectory with the
// key, by a linear scan.
func findByScan(a *Analysis, key string) *Trajectory {
	for i := range a.Trajectories {
		if a.Trajectories[i].Key == key {
			return &a.Trajectories[i]
		}
	}
	return nil
}

// Find on an assembled analysis answers every key exactly as a scan
// does, returns nil on a miss, and leaves the trajectory order alone.
func TestFindMatchesScan(t *testing.T) {
	quarters := []*faers.Quarter{makeQuarter("2014Q1", 3), makeQuarter("2014Q2", 8), makeQuarter("2014Q3", 12)}
	a, err := Run(quarters, trendOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trajectories) < 2 {
		t.Fatalf("fixture has %d trajectories, want several", len(a.Trajectories))
	}
	for i := 1; i < len(a.Trajectories); i++ {
		pi, pj := a.Trajectories[i-1].PeakSupport(), a.Trajectories[i].PeakSupport()
		if pi < pj || pi == pj && a.Trajectories[i-1].Key >= a.Trajectories[i].Key {
			t.Fatalf("trajectory order broken at %d", i)
		}
	}
	for i := range a.Trajectories {
		key := a.Trajectories[i].Key
		if got := a.Find(key); got != &a.Trajectories[i] || got != findByScan(a, key) {
			t.Errorf("Find(%q) = %p, want %p", key, got, &a.Trajectories[i])
		}
	}
	for _, key := range []string{"", "NO+PE", "DRUGY+DRUGX", "DRUGX"} {
		if got := a.Find(key); got != nil {
			t.Errorf("Find(%q) = %+v, want nil", key, got)
		}
	}
}

func TestClassifyEdgeCases(t *testing.T) {
	empty := Trajectory{}
	if empty.Classify() != Absent {
		t.Error("empty trajectory should be absent")
	}
	never := Trajectory{Points: []Point{{}, {}}}
	if never.Classify() != Absent {
		t.Error("never-signaled should be absent")
	}
	if never.EmergedAt() != "" {
		t.Error("EmergedAt of absent should be empty")
	}
}

// TestClassifyHardenedEdges pins down the degenerate shapes that used
// to fall through Classify: single-quarter trajectories and
// all-zero-support series must classify deterministically.
func TestClassifyHardenedEdges(t *testing.T) {
	tests := []struct {
		name   string
		points []Point
		want   Class
	}{
		{"no points", nil, Absent},
		{"single quarter signaled", []Point{{Quarter: "Q1", Rank: 1, Support: 10, Score: 0.5}}, Persistent},
		{"single quarter not signaled", []Point{{Quarter: "Q1"}}, Absent},
		{"single quarter rank without support", []Point{{Quarter: "Q1", Rank: 3}}, Absent},
		{"all zero support despite ranks", []Point{
			{Quarter: "Q1", Rank: 1}, {Quarter: "Q2", Rank: 2}, {Quarter: "Q3", Rank: 1},
		}, Absent},
		{"zero-support point breaks persistence", []Point{
			{Quarter: "Q1", Rank: 1, Support: 5},
			{Quarter: "Q2", Rank: 1}, // rank but no support: not signaled
			{Quarter: "Q3", Rank: 1, Support: 7},
		}, Transient},
		{"emerging unaffected", []Point{
			{Quarter: "Q1"},
			{Quarter: "Q2", Rank: 2, Support: 5},
			{Quarter: "Q3", Rank: 1, Support: 9},
		}, Emerging},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tr := Trajectory{Key: "X+Y", Points: tc.points}
			if got := tr.Classify(); got != tc.want {
				t.Errorf("Classify() = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestSignaledAccessors checks Quarters/EmergedAt agree with the
// Signaled contract on zero-support points.
func TestSignaledAccessors(t *testing.T) {
	tr := Trajectory{Points: []Point{
		{Quarter: "Q1", Rank: 1}, // rank, no support
		{Quarter: "Q2", Rank: 2, Support: 6},
	}}
	if got := tr.Quarters(); got != 1 {
		t.Errorf("Quarters = %d, want 1", got)
	}
	if got := tr.EmergedAt(); got != "Q2" {
		t.Errorf("EmergedAt = %q, want Q2", got)
	}
}

// TestAssembleKeepsStrongestReactions: when a combination surfaces
// under different reaction sets across quarters, the trajectory must
// carry the reactions of the strongest-scoring signal overall — even
// when the strongest quarter comes first.
func TestAssembleKeepsStrongestReactions(t *testing.T) {
	mk := func(rank int, score float64, support int, reacs ...string) core.Signal {
		return core.Signal{
			Rank: rank, Score: score, Support: support, Confidence: 0.5,
			Drugs: []string{"DRUGX", "DRUGY"}, Reactions: reacs,
		}
	}
	q1 := &core.Analysis{Signals: []core.Signal{mk(1, 0.9, 20, "STRONG REACTION")}}
	q2 := &core.Analysis{Signals: []core.Signal{mk(1, 0.4, 25, "WEAK REACTION")}}

	a := Assemble([]string{"Q1", "Q2"}, []*core.Analysis{q1, q2})
	tr := a.Find("DRUGX+DRUGY")
	if tr == nil {
		t.Fatal("trajectory missing")
	}
	if len(tr.Reactions) != 1 || tr.Reactions[0] != "STRONG REACTION" {
		t.Errorf("Reactions = %v, want the 0.9-score quarter's set", tr.Reactions)
	}
	// And the reverse order: strongest quarter last must win too.
	a = Assemble([]string{"Q1", "Q2"}, []*core.Analysis{q2, q1})
	tr = a.Find("DRUGX+DRUGY")
	if len(tr.Reactions) != 1 || tr.Reactions[0] != "STRONG REACTION" {
		t.Errorf("Reactions = %v, want the 0.9-score quarter's set (reversed order)", tr.Reactions)
	}
}
