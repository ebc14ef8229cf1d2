package core

import (
	"cmp"
	"context"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"

	"maras/internal/obs"
	"maras/internal/synth"
)

// TestRunQuarterTraceStages runs the full pipeline on a small
// synthetic quarter with a tracer attached and checks the trace: the
// stage names appear in pipeline order and the stage counters agree
// with the analysis outputs. The closure_filter stage, and with it the
// frequent-itemset count, appears only when CountRules mines the full
// frequent set.
func TestRunQuarterTraceStages(t *testing.T) {
	sc := synth.DefaultConfig("2014Q1", 7)
	sc.Reports = 600
	q, _, err := synth.Generate(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, countRules := range []bool{false, true} {
		tr := obs.NewTracer(nil)
		opts := NewOptions()
		opts.MinSupport = 3
		opts.CountRules = countRules
		opts.Tracer = tr
		a, err := RunQuarter(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkTraceStages(t, a, opts, tr.Records())
	}
}

func checkTraceStages(t *testing.T, a *Analysis, opts Options, recs []obs.StageRecord) {
	t.Helper()
	want := opts.Stages()
	if len(recs) != len(want) {
		names := make([]string, len(recs))
		for i, r := range recs {
			names[i] = r.Name
		}
		t.Fatalf("CountRules=%v: got %d stages %v, want %d %v",
			opts.CountRules, len(recs), names, len(want), want)
	}
	byName := map[string]obs.StageRecord{}
	for i, r := range recs {
		if r.Name != want[i] {
			t.Errorf("stage %d = %q, want %q", i, r.Name, want[i])
		}
		byName[r.Name] = r
	}

	// Counters must agree with the analysis.
	clean := byName[StageClean]
	if got := clean.Counters["reports_out"]; got != int64(a.Cleaning.ReportsOut) {
		t.Errorf("clean.reports_out = %d, want %d", got, a.Cleaning.ReportsOut)
	}
	if got := clean.Counters["duplicates_removed"]; got != int64(a.Cleaning.DuplicateReports) {
		t.Errorf("clean.duplicates_removed = %d, want %d", got, a.Cleaning.DuplicateReports)
	}
	encode := byName[StageEncode]
	if got := encode.Counters["transactions"]; got != int64(a.Stats.Reports) {
		t.Errorf("encode.transactions = %d, want Stats.Reports = %d", got, a.Stats.Reports)
	}
	mine := byName[StageMine]
	closed := mine.Counters["closed_itemsets"]
	if closed == 0 {
		t.Error("mine.closed_itemsets = 0")
	}
	if _, ok := mine.Counters["frequent_itemsets"]; ok {
		t.Error("mine stage counts frequent itemsets it never mines")
	}
	rules := byName[StageRules]
	if got := rules.Counters["rules_kept"]; got > closed {
		t.Errorf("rule_gen.rules_kept = %d exceeds mine.closed_itemsets %d", got, closed)
	}
	if closure, ok := byName[StageClosure]; ok {
		// mine counts only targets; closure_filter counts every closed
		// set, and the reduction is measured against those.
		frequent := closure.Counters["frequent_itemsets"]
		all := closure.Counters["closed_itemsets"]
		if all < closed {
			t.Errorf("closure.closed_itemsets (%d) < mine.closed_itemsets (%d)", all, closed)
		}
		if frequent < all {
			t.Errorf("frequent (%d) < closed (%d)", frequent, all)
		}
		if got := closure.Counters["itemsets_dropped"]; got != frequent-all {
			t.Errorf("closure.itemsets_dropped = %d, want %d", got, frequent-all)
		}
		if a.Counts.FilteredRules == 0 || a.Counts.TotalRules < a.Counts.FilteredRules {
			t.Errorf("rule-space counts %+v not sized", a.Counts)
		}
	}
	cluster := byName[StageCluster]
	if got := cluster.Counters["clusters_built"]; got != int64(a.Counts.MCACs) {
		t.Errorf("mcac_build.clusters_built = %d, want Counts.MCACs = %d", got, a.Counts.MCACs)
	}
	link := byName[StageLink]
	if got := link.Counters["signals"]; got != int64(len(a.Signals)) {
		t.Errorf("validate_link.signals = %d, want %d", got, len(a.Signals))
	}
	if link.Counters["known"]+link.Counters["novel"] != link.Counters["signals"] {
		t.Errorf("known (%d) + novel (%d) != signals (%d)",
			link.Counters["known"], link.Counters["novel"], link.Counters["signals"])
	}
	rankSt := byName[StageRank]
	if got := rankSt.Counters["signals_kept"]; got != int64(len(a.Signals)) {
		t.Errorf("rank.signals_kept = %d, want %d", got, len(a.Signals))
	}
}

// TestRunNilTracerUnchanged checks that running without a tracer
// produces the same analysis (the tracer is observe-only).
func TestRunNilTracerUnchanged(t *testing.T) {
	opts := NewOptions()
	opts.MinSupport = 3
	plain, err := Run(handReports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Tracer = obs.NewTracer(nil)
	traced, err := Run(handReports(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Signals) != len(traced.Signals) {
		t.Fatalf("signal count changed under tracing: %d vs %d",
			len(plain.Signals), len(traced.Signals))
	}
	for i := range plain.Signals {
		if plain.Signals[i].Key() != traced.Signals[i].Key() ||
			plain.Signals[i].Score != traced.Signals[i].Score {
			t.Errorf("signal %d differs under tracing", i)
		}
	}
}

// BenchmarkNilTracerPipelineHooks guards the hot path: a stage as the
// pipeline runs it, with no tracer configured and no active span,
// costs only the pprof label it runs under.
func BenchmarkNilTracerPipelineHooks(b *testing.B) {
	var opts Options // Tracer nil, as in every untraced run
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obs.Do(ctx, opts.Tracer, obs.StageSpanPrefix+StageMine, func(_ context.Context, st *obs.Stage) {
			st.Count("closed_itemsets", int64(i))
		}, obs.LabelStage, StageMine)
	}
}

// TestNilTracerHooksZeroAlloc: with a nil tracer and no active span, a
// pipeline stage allocates exactly what a bare pprof.Do with the same
// label does, and counting on the nil stage it is handed is free.
func TestNilTracerHooksZeroAlloc(t *testing.T) {
	var opts Options
	ctx := context.Background()
	bare := testing.AllocsPerRun(200, func() {
		pprof.Do(ctx, pprof.Labels(obs.LabelStage, StageMine), func(context.Context) {})
	})
	stage := testing.AllocsPerRun(200, func() {
		obs.Do(ctx, opts.Tracer, obs.StageSpanPrefix+StageMine, func(_ context.Context, st *obs.Stage) {
			st.Count("closed_itemsets", 1)
		}, obs.LabelStage, StageMine)
	})
	if stage != bare {
		t.Errorf("untraced stage allocates %.1f per op, bare pprof.Do %.1f", stage, bare)
	}
	var st *obs.Stage
	if allocs := testing.AllocsPerRun(200, func() { st.Count("closed_itemsets", 1) }); allocs != 0 {
		t.Errorf("nil stage Count allocates %.1f per op, want 0", allocs)
	}
}

// TestRunContextFailedRunKeepsCompletedStages: stage spans are opened
// live, so a run that fails after clean (no usable reports) still
// shows the clean stage under the root.
func TestRunContextFailedRunKeepsCompletedStages(t *testing.T) {
	opts := NewOptions()
	tr := obs.NewTrace("failed")
	ctx, root := tr.StartRoot(context.Background(), "mine")
	if _, err := RunContext(ctx, nil, opts); err == nil {
		t.Fatal("a run over no reports succeeded")
	}
	root.End()
	rec := tr.Snapshot()
	var names []string
	rootID := -1
	for _, s := range rec.Spans {
		if s.Parent == -1 {
			rootID = s.ID
		}
	}
	for _, s := range rec.Spans {
		if s.Parent == rootID {
			names = append(names, s.Name)
		}
	}
	if want := []string{obs.StageSpanPrefix + StageClean}; !slices.Equal(names, want) {
		t.Errorf("spans under the root of a failed run = %v, want %v", names, want)
	}
}

// TestRunContextStageSpansOrdered: under an active root the stage
// spans run in StageOrder, back to back without overlapping, and lie
// inside the root span.
func TestRunContextStageSpansOrdered(t *testing.T) {
	opts := NewOptions()
	opts.MinSupport = 3
	opts.CountRules = true
	tr := obs.NewTrace("ordered")
	ctx, root := tr.StartRoot(context.Background(), "mine")
	if _, err := RunContext(ctx, handReports(), opts); err != nil {
		t.Fatal(err)
	}
	root.End()
	rec := tr.Snapshot()
	var rootSpan obs.SpanRecord
	var stages []obs.SpanRecord
	for _, s := range rec.Spans {
		switch {
		case s.Parent == -1:
			rootSpan = s
		case strings.HasPrefix(s.Name, obs.StageSpanPrefix):
			stages = append(stages, s)
		}
	}
	slices.SortFunc(stages, func(a, b obs.SpanRecord) int { return cmp.Compare(a.StartNS, b.StartNS) })
	var names []string
	for i, s := range stages {
		names = append(names, strings.TrimPrefix(s.Name, obs.StageSpanPrefix))
		if s.Parent != rootSpan.ID {
			t.Errorf("%s parented to %d, want root %d", s.Name, s.Parent, rootSpan.ID)
		}
		if s.StartNS < rootSpan.StartNS || s.StartNS+s.DurationNS > rootSpan.StartNS+rootSpan.DurationNS {
			t.Errorf("%s [%d, +%d] outside the root [%d, +%d]",
				s.Name, s.StartNS, s.DurationNS, rootSpan.StartNS, rootSpan.DurationNS)
		}
		if i > 0 && s.StartNS < stages[i-1].StartNS+stages[i-1].DurationNS {
			t.Errorf("%s starts at %d, before %s ends at %d", s.Name, s.StartNS,
				stages[i-1].Name, stages[i-1].StartNS+stages[i-1].DurationNS)
		}
	}
	if want := StageOrder(); !slices.Equal(names, want) {
		t.Errorf("stage spans in start order = %v, want %v", names, want)
	}
}
