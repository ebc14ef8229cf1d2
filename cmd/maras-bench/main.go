// Command maras-bench regenerates every table and figure of the
// paper's evaluation (Chapter 5) plus the ablations called out in
// DESIGN.md, on synthetic FAERS quarters with planted ground truth.
//
// Experiments (-exp):
//
//	table5.1      dataset statistics per quarter (Table 5.1)
//	fig5.1        rule-space reduction: Total vs Filtered vs MCACs (Fig 5.1)
//	table5.2      top-5 multi-drug associations under 4 rankings (Table 5.2)
//	cases         case studies: ranks of planted known interactions (Section 5.4)
//	fig5.2        simulated user study: glyph vs bar-chart accuracy (Fig 5.2)
//	figs4         render glyph/panorama/zoom/bar-chart SVGs (Figs 4.1-4.3, 5.3)
//	ablate-theta  exclusiveness θ sweep (ablation A1)
//	ablate-decay  decay-function ablation (A2)
//	ablate-closed closed vs non-closed rule base (A3)
//	baselines     exclusiveness vs improvement/lift/PRR/ROR (A4)
//	trend         cross-quarter trajectories under ramping exposure
//	drift         audit-layer drift detection: churn/rank-shift per pair + cost (BENCH_drift.json)
//	chaos         fault-injected serving: availability/shed/recovery per mix (BENCH_chaos.json)
//	slo           burn-rate alerting against a live server: client vs /api/slo agreement (BENCH_slo.json)
//	watch         watchlist alerting at scale: index build + eval latency vs population (BENCH_watch.json)
//	prof          continuous profiling: stage attribution, capture overhead, triggered snapshots (BENCH_prof.json)
//	wide          wide-event telemetry: emit cost, disabled-path allocs, query p99, diag correlation (BENCH_wide.json)
//	replica       replicated snapshot store: 3-node anti-entropy under partition/lag/flap/corrupt-peer (BENCH_replica.json)
//	all           everything above
//
// Usage:
//
//	maras-bench -exp all [-seed 1] [-reports 15000] [-minsup 8]
//	            [-paper-scale] [-svg-out figures]
//
// -exp takes "all" or a comma-separated list of ids; an unknown id is
// rejected before anything runs. Every requested experiment runs, in
// order, even after one fails its gates, and the command then exits 1
// naming each experiment that failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/obs"
	"maras/internal/synth"
)

type benchConfig struct {
	seed       int64
	reports    int
	minsup     int
	paperScale bool
	svgOut     string
	traceOut   string
	driftOut   string
	chaosOut   string
	sloOut     string
	failpoints string
	watchLists int
	watchIters int
	watchOut   string
	profOut    string
	wideOut    string
	replicaOut string
}

// traceRun is one traced pipeline execution: which experiment ran
// it, on which quarter, and its per-stage records (wall time,
// allocation volume, stage counters). The collected runs land in the
// -trace-out JSON artifact so BENCH_*.json trajectories can
// attribute a regression to a specific pipeline stage.
type traceRun struct {
	Experiment string            `json:"experiment"`
	Quarter    string            `json:"quarter"`
	Stages     []obs.StageRecord `json:"stages"`
}

// benchTraces accumulates every traced run of the invocation; the
// bench is single-threaded, so plain appends suffice.
var benchTraces []traceRun

// tracedRun executes the pipeline on a quarter with a tracer
// attached and records the stage trace under the experiment label.
func tracedRun(experiment string, q *faers.Quarter, opts core.Options) (*core.Analysis, error) {
	tr := obs.NewTracer(nil)
	opts.Tracer = tr
	a, err := core.RunQuarter(q, opts)
	if err == nil {
		benchTraces = append(benchTraces, traceRun{
			Experiment: experiment,
			Quarter:    q.Label,
			Stages:     tr.Records(),
		})
	}
	return a, err
}

// traceArtifact is the -trace-out JSON payload: the traced runs plus
// a runtime snapshot (GC pauses, heap, goroutines, sched latency) of
// the bench process, so a slow BENCH_*.json trajectory can be told
// apart from a GC-thrashed host.
type traceArtifact struct {
	Runtime obs.RuntimeStats `json:"runtime"`
	Runs    []traceRun       `json:"runs"`
}

// writeTraces writes the per-stage trace artifact.
func writeTraces(path string) error {
	runs := benchTraces
	if runs == nil {
		runs = []traceRun{}
	}
	data, err := json.MarshalIndent(traceArtifact{
		Runtime: obs.ReadRuntimeStats(),
		Runs:    runs,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("maras-bench: ")

	var (
		exp        = flag.String("exp", "all", "experiment id (see command doc)")
		seed       = flag.Int64("seed", 1, "base random seed")
		reports    = flag.Int("reports", 0, "reports per quarter (0 = config default)")
		minsup     = flag.Int("minsup", 8, "absolute minimum support for mining")
		paperScale = flag.Bool("paper-scale", false, "use the paper's Table 5.1 scale")
		svgOut     = flag.String("svg-out", "figures", "output directory for figs4 SVGs")
		traceOut   = flag.String("trace-out", "BENCH_trace.json", "per-stage pipeline trace JSON artifact (empty = skip)")
		driftOut   = flag.String("drift-out", "BENCH_drift.json", "drift-experiment JSON artifact (empty = skip)")
		chaosOut   = flag.String("chaos-out", "BENCH_chaos.json", "chaos-experiment JSON artifact (empty = skip)")
		sloOut     = flag.String("slo-out", "BENCH_slo.json", "slo-experiment JSON artifact (empty = skip)")
		failpoints = flag.String("failpoints", "", "custom failpoint spec for -exp chaos (replaces the built-in fault mixes)")
		watchLists = flag.Int("watch-lists", 1_000_000, "watchlist population for -exp watch")
		watchIters = flag.Int("watch-iters", 40, "evaluation iterations per population for -exp watch")
		watchOut   = flag.String("watch-out", "BENCH_watch.json", "watch-experiment JSON artifact (empty = skip)")
		profOut    = flag.String("prof-out", "BENCH_prof.json", "profiling-experiment JSON artifact (empty = skip)")
		wideOut    = flag.String("wide-out", "BENCH_wide.json", "wide-event-experiment JSON artifact (empty = skip)")
		replicaOut = flag.String("replica-out", "BENCH_replica.json", "replica-experiment JSON artifact (empty = skip)")
	)
	flag.Parse()

	cfg := benchConfig{
		seed: *seed, reports: *reports, minsup: *minsup,
		paperScale: *paperScale, svgOut: *svgOut, traceOut: *traceOut,
		driftOut: *driftOut, chaosOut: *chaosOut, sloOut: *sloOut, failpoints: *failpoints,
		watchLists: *watchLists, watchIters: *watchIters, watchOut: *watchOut,
		profOut: *profOut, wideOut: *wideOut, replicaOut: *replicaOut,
	}

	runners := map[string]func(benchConfig) error{
		"table5.1":       runTable51,
		"fig5.1":         runFig51,
		"table5.2":       runTable52,
		"cases":          runCases,
		"fig5.2":         runFig52,
		"figs4":          runFigs4,
		"ablate-theta":   runAblateTheta,
		"ablate-decay":   runAblateDecay,
		"ablate-closed":  runAblateClosed,
		"ablate-suspect": runAblateSuspect,
		"baselines":      runBaselines,
		"trend":          runTrend,
		"drift":          runDrift,
		"chaos":          runChaos,
		"slo":            runSLO,
		"watch":          runWatch,
		"prof":           runProf,
		"wide":           runWide,
		"replica":        runReplica,
	}
	order := []string{
		"table5.1", "fig5.1", "table5.2", "cases", "fig5.2", "figs4",
		"ablate-theta", "ablate-decay", "ablate-closed", "ablate-suspect",
		"baselines", "trend", "drift", "chaos", "slo", "watch", "prof",
		"wide", "replica",
	}

	ids, err := experimentIDs(*exp, order, runners)
	if err != nil {
		log.Fatal(err)
	}
	failed := runExperiments(ids, runners, cfg)
	if cfg.traceOut != "" {
		if err := writeTraces(cfg.traceOut); err != nil {
			log.Printf("trace-out: %v", err)
			failed = append(failed, "trace-out")
		} else {
			fmt.Printf("\nwrote per-stage trace for %d pipeline runs to %s\n", len(benchTraces), cfg.traceOut)
		}
	}
	_ = os.Stdout.Sync()
	if len(failed) > 0 {
		log.Fatalf("failed: %s", strings.Join(failed, ", "))
	}
}

// experimentIDs parses -exp ("all" or a comma-separated list) into the
// experiments to run, rejecting unknown ids before any of them runs.
func experimentIDs(exp string, order []string, runners map[string]func(benchConfig) error) ([]string, error) {
	if exp == "all" {
		return order, nil
	}
	var ids []string
	for _, id := range strings.Split(exp, ",") {
		id = strings.TrimSpace(id)
		if _, ok := runners[id]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (have: %s, all)", id, strings.Join(order, ", "))
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// runExperiments runs every experiment of ids in order, going on after
// one fails so that a failing gate hides no later result, and returns
// the ids that failed.
func runExperiments(ids []string, runners map[string]func(benchConfig) error, cfg benchConfig) []string {
	var failed []string
	for _, id := range ids {
		fmt.Printf("\n================ %s ================\n\n", id)
		if err := runners[id](cfg); err != nil {
			log.Printf("%s: %v", id, err)
			failed = append(failed, id)
		}
	}
	return failed
}

// quarterCache avoids regenerating the same quarters across
// experiments in one invocation.
var quarterCache = map[string]cachedQuarter{}

type cachedQuarter struct {
	quarter *faers.Quarter
	truth   *synth.GroundTruth
}

// genQuarter returns the synthetic quarter for label under cfg,
// generating it on first use.
func genQuarter(cfg benchConfig, label string, seedOffset int64) (*faers.Quarter, *synth.GroundTruth, error) {
	key := fmt.Sprintf("%s/%d/%d/%v", label, cfg.seed+seedOffset, cfg.reports, cfg.paperScale)
	if c, ok := quarterCache[key]; ok {
		return c.quarter, c.truth, nil
	}
	sc := synth.DefaultConfig(label, cfg.seed+seedOffset)
	if cfg.paperScale {
		sc = synth.PaperScaleConfig(label, cfg.seed+seedOffset)
	}
	if cfg.reports > 0 {
		sc.Reports = cfg.reports
	}
	q, gt, err := synth.Generate(sc)
	if err != nil {
		return nil, nil, err
	}
	quarterCache[key] = cachedQuarter{q, gt}
	return q, gt, nil
}

var quarterLabels = []string{"2014Q1", "2014Q2", "2014Q3", "2014Q4"}
