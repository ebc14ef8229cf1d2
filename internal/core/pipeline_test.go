package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"maras/internal/eval"
	"maras/internal/faers"
	"maras/internal/knowledge"
	"maras/internal/obs"
	"maras/internal/rank"
	"maras/internal/synth"
	"maras/internal/types"
)

// handReports builds a tiny corpus with one strong interaction
// (X+Y -> Bleeding) over background noise.
func handReports() []faers.Report {
	var out []faers.Report
	id := 0
	add := func(drugs, reacs []string) {
		id++
		out = append(out, faers.Report{
			PrimaryID:  fmt.Sprintf("%d", 1000+id),
			CaseID:     fmt.Sprintf("C%d", id),
			ReportCode: "EXP",
			Drugs:      drugs,
			Reactions:  reacs,
		})
	}
	for i := 0; i < 8; i++ {
		add([]string{"DRUGX", "DRUGY"}, []string{"Bleeding"})
	}
	for i := 0; i < 20; i++ {
		add([]string{"DRUGX"}, []string{"Nausea"})
		add([]string{"DRUGY"}, []string{"Headache"})
	}
	// A dominated pair: DRUGU alone causes Rash as often as the pair.
	for i := 0; i < 8; i++ {
		add([]string{"DRUGU", "DRUGV"}, []string{"Rash"})
		add([]string{"DRUGU"}, []string{"Rash"})
	}
	// Background.
	for i := 0; i < 30; i++ {
		add([]string{fmt.Sprintf("BG%d", i%7)}, []string{"Dizziness"})
	}
	return out
}

func TestRunFindsPlantedInteraction(t *testing.T) {
	opts := NewOptions()
	opts.MinSupport = 3
	a, err := Run(handReports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Signals) == 0 {
		t.Fatal("no signals")
	}
	top := a.Signals[0]
	if top.Key() != "DRUGX+DRUGY" {
		t.Errorf("top signal = %s (score %.3f), want DRUGX+DRUGY", top.Key(), top.Score)
	}
	if top.Support != 8 {
		t.Errorf("top support = %d, want 8", top.Support)
	}
	if top.Confidence < 0.2 {
		t.Errorf("top confidence = %v", top.Confidence)
	}
	// The dominated pair must rank below the true interaction.
	xy := eval.RankOf(signalKeys(a.Signals), "DRUGX+DRUGY")
	uv := eval.RankOf(signalKeys(a.Signals), "DRUGU+DRUGV")
	if uv != 0 && uv < xy {
		t.Errorf("dominated pair ranked %d above true interaction %d", uv, xy)
	}
}

func signalKeys(sig []Signal) []string {
	out := make([]string, len(sig))
	for i := range sig {
		out[i] = sig[i].Key()
	}
	return out
}

func TestRunSignalFields(t *testing.T) {
	opts := NewOptions()
	opts.MinSupport = 3
	a, err := Run(handReports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range a.Signals {
		if s.Rank != i+1 {
			t.Errorf("rank %d at index %d", s.Rank, i)
		}
		if len(s.Drugs) < 2 {
			t.Errorf("signal %d has %d drugs", i, len(s.Drugs))
		}
		if len(s.ReportIDs) == 0 {
			t.Errorf("signal %d has no supporting reports", i)
		}
		if s.Cluster == nil {
			t.Errorf("signal %d lacks cluster", i)
		}
		if s.Support <= 0 {
			t.Errorf("signal %d support %d", i, s.Support)
		}
	}
}

func TestRunReportLinking(t *testing.T) {
	opts := NewOptions()
	opts.MinSupport = 3
	a, err := Run(handReports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	top := a.Signals[0]
	if len(top.ReportIDs) != top.Support {
		t.Errorf("report links %d != support %d", len(top.ReportIDs), top.Support)
	}
}

func TestRunCountsMonotone(t *testing.T) {
	opts := NewOptions()
	opts.MinSupport = 3
	opts.CountRules = true
	a, err := Run(handReports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Counts
	if !(c.TotalRules >= c.FilteredRules && c.FilteredRules >= c.MCACs) {
		t.Errorf("rule reduction violated: total=%d filtered=%d mcacs=%d",
			c.TotalRules, c.FilteredRules, c.MCACs)
	}
	if c.MCACs == 0 {
		t.Error("no MCACs built")
	}
}

func TestRunExpeditedFilter(t *testing.T) {
	reports := handReports()
	// Flip half the background to PER.
	for i := range reports {
		if i%2 == 0 && len(reports[i].Drugs) == 1 {
			reports[i].ReportCode = "PER"
		}
	}
	withFilter, err := Run(reports, NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := NewOptions()
	opts.ExpeditedOnly = false
	without, err := Run(reports, opts)
	if err != nil {
		t.Fatal(err)
	}
	if withFilter.Stats.Reports >= without.Stats.Reports {
		t.Errorf("EXP filter did not reduce reports: %d vs %d",
			withFilter.Stats.Reports, without.Stats.Reports)
	}
}

func TestRunEmptyInput(t *testing.T) {
	if _, err := Run(nil, NewOptions()); err == nil {
		t.Error("empty input should error")
	}
}

func TestRunTopK(t *testing.T) {
	opts := NewOptions()
	opts.MinSupport = 2
	opts.TopK = 1
	a, err := Run(handReports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Signals) != 1 {
		t.Errorf("TopK=1 returned %d signals", len(a.Signals))
	}
}

func TestFilterSignalsAndNovel(t *testing.T) {
	opts := NewOptions()
	opts.MinSupport = 3
	a, err := Run(handReports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	hits := a.FilterSignals("DRUGX")
	if len(hits) == 0 {
		t.Error("FilterSignals(DRUGX) empty")
	}
	for _, s := range hits {
		found := false
		for _, d := range s.Drugs {
			if d == "DRUGX" {
				found = true
			}
		}
		if !found {
			t.Errorf("signal %s does not mention DRUGX", s.Key())
		}
	}
	if len(a.FilterSignals("NOSUCH")) != 0 {
		t.Error("FilterSignals(NOSUCH) non-empty")
	}
	// All the hand-made signals are novel (not in the builtin KB).
	if len(a.NovelSignals()) != len(a.Signals) {
		t.Error("hand-made signals should all be novel")
	}
}

// FilterSignals must match case-insensitively: drug names are stored
// upper-cased but reaction terms sentence-cased, and users type
// either in any case.
func TestFilterSignalsCaseInsensitive(t *testing.T) {
	opts := NewOptions()
	opts.MinSupport = 3
	a, err := Run(handReports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := len(a.FilterSignals("DRUGX"))
	if want == 0 {
		t.Fatal("fixture has no DRUGX signals")
	}
	for _, q := range []string{"drugx", "DrugX", "DRUGX"} {
		if got := len(a.FilterSignals(q)); got != want {
			t.Errorf("FilterSignals(%q) = %d signals, want %d", q, got, want)
		}
	}
	// Reaction terms too: find any reaction from the top signal and
	// query it in the wrong case.
	reac := a.Signals[0].Reactions[0]
	if got := a.FilterSignals(strings.ToUpper(reac)); len(got) == 0 {
		t.Errorf("FilterSignals(%q) found nothing", strings.ToUpper(reac))
	}
	if got := a.FilterSignals(strings.ToLower(reac)); len(got) == 0 {
		t.Errorf("FilterSignals(%q) found nothing", strings.ToLower(reac))
	}
}

func TestRunKnowledgeValidation(t *testing.T) {
	var reports []faers.Report
	for i := 0; i < 10; i++ {
		reports = append(reports, faers.Report{
			PrimaryID: fmt.Sprintf("%d", i), CaseID: fmt.Sprintf("c%d", i), ReportCode: "EXP",
			Drugs:     []string{"ASPIRIN", "WARFARIN"},
			Reactions: []string{"Haemorrhage"},
		})
	}
	for i := 0; i < 20; i++ {
		reports = append(reports, faers.Report{
			PrimaryID: fmt.Sprintf("a%d", i), CaseID: fmt.Sprintf("ca%d", i), ReportCode: "EXP",
			Drugs:     []string{"ASPIRIN"},
			Reactions: []string{"Nausea"},
		})
		reports = append(reports, faers.Report{
			PrimaryID: fmt.Sprintf("w%d", i), CaseID: fmt.Sprintf("cw%d", i), ReportCode: "EXP",
			Drugs:     []string{"WARFARIN"},
			Reactions: []string{"Dizziness"},
		})
	}
	opts := NewOptions()
	opts.MinSupport = 3
	a, err := Run(reports, opts)
	if err != nil {
		t.Fatal(err)
	}
	var hit *Signal
	for i := range a.Signals {
		if a.Signals[i].Key() == "ASPIRIN+WARFARIN" {
			hit = &a.Signals[i]
		}
	}
	if hit == nil {
		t.Fatal("aspirin+warfarin signal missing")
	}
	if hit.Known == nil {
		t.Fatal("knowledge-base validation missed a curated interaction")
	}
	if hit.Known.Severity != knowledge.Severe {
		t.Errorf("severity = %v", hit.Known.Severity)
	}
}

// End-to-end on synthetic data: planted interactions should be
// recoverable with decent precision.
func TestRunOnSyntheticQuarter(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic end-to-end in -short mode")
	}
	cfg := synth.DefaultConfig("2014Q1", 42)
	cfg.Reports = 8000
	cfg.DrugVocab = 800
	cfg.ReactionVocab = 300
	cfg.ExposureRate = 0.08
	q, gt, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := NewOptions()
	opts.MinSupport = 8
	a, err := RunQuarter(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := eval.Score(signalKeys(a.Signals), gt.Keys())
	if res.RecallAt[50] < 0.3 {
		t.Errorf("recall@50 = %.2f, want >= 0.3 (found %d signals; first hit rank %d)",
			res.RecallAt[50], len(a.Signals), res.FirstHitRank)
	}
	if res.FirstHitRank == 0 || res.FirstHitRank > 10 {
		t.Errorf("first planted interaction at rank %d, want top-10", res.FirstHitRank)
	}
	// Exclusiveness must beat raw confidence at surfacing truth.
	optsConf := opts
	optsConf.Method = rank.ByConfidence
	ac, err := RunQuarter(q, optsConf)
	if err != nil {
		t.Fatal(err)
	}
	resConf := eval.Score(signalKeys(ac.Signals), gt.Keys())
	if res.MRR < resConf.MRR {
		t.Errorf("exclusiveness MRR %.3f below confidence MRR %.3f", res.MRR, resConf.MRR)
	}
}

// TestRunSameSignalsAcrossGOMAXPROCS: cleaning, mining, rule
// generation, cluster construction and linking fan out over GOMAXPROCS
// workers; one worker and four must give the same signals — clusters
// and their level order, report links, organ classes and knowledge
// matches — and the same statistics, rule-space counts and dictionary.
// A dictionary issued in another order could leave the signals equal
// while renumbering every item.
func TestRunSameSignalsAcrossGOMAXPROCS(t *testing.T) {
	sc := synth.DefaultConfig("2014Q1", 3)
	sc.Reports = 2500
	q, _, err := synth.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	reports := q.Reports()
	opts := NewOptions()
	opts.TopK = 0
	run := func(procs int) *Analysis {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		a, err := Run(reports, opts)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	sa, pa := run(1), run(4)
	serial, parallel := sa.Signals, pa.Signals
	if len(serial) == 0 {
		t.Fatal("no signals")
	}
	deep, known := 0, 0
	for _, s := range serial {
		if s.Cluster.DrugCount() >= 3 {
			deep++
		}
		if s.Known != nil {
			known++
		}
	}
	if deep == 0 || known == 0 {
		t.Fatalf("%d signals, %d with ≥ 3 drugs, %d known: want some of each", len(serial), deep, known)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("GOMAXPROCS=4 found %d signals, GOMAXPROCS=1 %d", len(parallel), len(serial))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("signal %d differs:\nGOMAXPROCS=1 %+v\nGOMAXPROCS=4 %+v", i, serial[i], parallel[i])
		}
	}

	c := sa.Cleaning
	if c.DrugSpellingsFixed+c.ReacSpellingsFixed == 0 || c.WithinReportDupDrugs+c.WithinReportDupReacs == 0 {
		t.Fatalf("cleaning stats %+v: want spelling fixes and within-report duplicates", c)
	}
	if pa.Cleaning != sa.Cleaning {
		t.Errorf("cleaning stats differ:\nGOMAXPROCS=1 %+v\nGOMAXPROCS=4 %+v", sa.Cleaning, pa.Cleaning)
	}
	if pa.Stats != sa.Stats {
		t.Errorf("database stats differ:\nGOMAXPROCS=1 %+v\nGOMAXPROCS=4 %+v", sa.Stats, pa.Stats)
	}
	if pa.Counts != sa.Counts {
		t.Errorf("counts differ:\nGOMAXPROCS=1 %+v\nGOMAXPROCS=4 %+v", sa.Counts, pa.Counts)
	}
	sd, pd := sa.Dict(), pa.Dict()
	if pd.Len() != sd.Len() {
		t.Fatalf("dictionary has %d items at GOMAXPROCS=4, %d at GOMAXPROCS=1", pd.Len(), sd.Len())
	}
	for it := range types.Item(sd.Len()) {
		if pd.Name(it) != sd.Name(it) || pd.Domain(it) != sd.Domain(it) {
			t.Fatalf("item %d is %q (%v) at GOMAXPROCS=4, %q (%v) at GOMAXPROCS=1",
				it, pd.Name(it), pd.Domain(it), sd.Name(it), sd.Domain(it))
		}
	}
}

// TestRunContextBridgesStageSpans: running under an active span turns
// every pipeline stage into a "stage:<name>" child span, even when the
// caller supplied no tracer of its own.
func TestRunContextBridgesStageSpans(t *testing.T) {
	opts := NewOptions()
	opts.MinSupport = 3

	tr := obs.NewTrace("mine")
	ctx, root := tr.StartRoot(context.Background(), "startup mine")
	a, err := RunContext(ctx, handReports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Signals) == 0 {
		t.Fatal("no signals")
	}
	root.End()

	rec := tr.Snapshot()
	got := map[string]obs.SpanRecord{}
	for _, s := range rec.Spans {
		got[s.Name] = s
	}
	rootID := got["startup mine"].ID
	for _, stage := range opts.Stages() {
		s, ok := got["stage:"+stage]
		if !ok {
			t.Errorf("stage span stage:%s missing", stage)
			continue
		}
		if s.Parent != rootID {
			t.Errorf("stage:%s parented to %d, want root %d", stage, s.Parent, rootID)
		}
	}
	if s := got["stage:"+StageClean]; s.Attrs["alloc_bytes"] == "" {
		t.Errorf("stage span lost tracer attributes: %v", s.Attrs)
	}
}

// TestRunContextReusedTracerNoDoubleBridge: a caller-owned tracer that
// already holds records from a previous run must contribute only the
// new run's stages.
func TestRunContextReusedTracerNoDoubleBridge(t *testing.T) {
	opts := NewOptions()
	opts.MinSupport = 3
	opts.Tracer = obs.NewTracer(nil)

	// First run without a span: fills the tracer.
	if _, err := RunContext(context.Background(), handReports(), opts); err != nil {
		t.Fatal(err)
	}
	base := opts.Tracer.Len()
	if base == 0 {
		t.Fatal("tracer recorded nothing")
	}

	tr := obs.NewTrace("second")
	ctx, root := tr.StartRoot(context.Background(), "second run")
	if _, err := RunContext(ctx, handReports(), opts); err != nil {
		t.Fatal(err)
	}
	root.End()

	rec := tr.Snapshot()
	stageSpans := 0
	for _, s := range rec.Spans {
		if strings.HasPrefix(s.Name, "stage:") {
			stageSpans++
		}
	}
	if want := len(opts.Stages()); stageSpans != want {
		t.Errorf("bridged %d stage spans, want %d (one run only)", stageSpans, want)
	}
}

// TestRunContextWithoutSpanIsPlainRun: no active span means no side
// effects — same results, no tracer forced onto the options.
func TestRunContextWithoutSpanIsPlainRun(t *testing.T) {
	opts := NewOptions()
	opts.MinSupport = 3
	a, err := RunContext(context.Background(), handReports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(handReports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Signals) != len(b.Signals) {
		t.Errorf("context run diverged: %d vs %d signals", len(a.Signals), len(b.Signals))
	}
}
