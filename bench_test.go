// Benchmarks regenerating every table and figure of the paper's
// evaluation (one per artifact), plus the performance benches for the
// engine components. Workloads are synthetic quarters with planted
// ground truth; sizes are scaled to keep a full -bench=. run in
// minutes on a laptop. The maras-bench command runs the same
// experiments with full reporting (and -paper-scale for the published
// sizes).
package maras_test

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"time"

	"maras/internal/apriori"
	"maras/internal/assoc"
	"maras/internal/cleaning"
	"maras/internal/core"
	"maras/internal/ebgm"
	"maras/internal/eval"
	"maras/internal/faers"
	"maras/internal/fpgrowth"
	"maras/internal/glyph"
	"maras/internal/lcm"
	"maras/internal/mcac"
	"maras/internal/obs"
	"maras/internal/rank"
	"maras/internal/studysim"
	"maras/internal/synth"
	"maras/internal/trend"
	"maras/internal/txdb"
	"maras/internal/types"
)

const (
	benchReports = 6000
	benchMinSup  = 6
)

// benchQuarter caches one synthetic quarter across benchmarks.
var benchQuarterCache *faers.Quarter
var benchTruthCache *synth.GroundTruth

func benchQuarter(b *testing.B) (*faers.Quarter, *synth.GroundTruth) {
	b.Helper()
	if benchQuarterCache == nil {
		cfg := synth.DefaultConfig("2014Q1", 1)
		cfg.Reports = benchReports
		q, gt, err := synth.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchQuarterCache, benchTruthCache = q, gt
	}
	return benchQuarterCache, benchTruthCache
}

func benchDB(b *testing.B) *txdb.DB {
	b.Helper()
	q, _ := benchQuarter(b)
	db, _, err := core.EncodeReports(q.Reports(), core.NewOptions())
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkTable51_QuarterStats regenerates Table 5.1: per-quarter
// dataset statistics after cleaning.
func BenchmarkTable51_QuarterStats(b *testing.B) {
	q, _ := benchQuarter(b)
	reports := q.Reports()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cleaned, _ := cleaning.Clean(reports, cleaning.Defaults())
		exp := faers.FilterExpedited(cleaned)
		if len(exp) == 0 {
			b.Fatal("no expedited reports")
		}
	}
}

// BenchmarkFig51_RuleReduction regenerates Fig 5.1: the Total /
// Filtered / MCACs counts for one quarter.
func BenchmarkFig51_RuleReduction(b *testing.B) {
	q, _ := benchQuarter(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.NewOptions()
		opts.MinSupport = benchMinSup
		opts.CountRules = true
		a, err := core.RunQuarter(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		c := a.Counts
		if !(c.TotalRules >= c.FilteredRules && c.FilteredRules >= c.MCACs && c.MCACs > 0) {
			b.Fatalf("reduction shape violated: %+v", c)
		}
	}
}

// BenchmarkTable52_TopK regenerates Table 5.2: the top-5 lists under
// the four ranking methods.
func BenchmarkTable52_TopK(b *testing.B) {
	q, _ := benchQuarter(b)
	methods := []rank.Method{
		rank.ByConfidence, rank.ByLift, rank.ByExclusivenessConf, rank.ByExclusivenessLift,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range methods {
			opts := core.NewOptions()
			opts.MinSupport = benchMinSup
			opts.Method = m
			opts.TopK = 5
			a, err := core.RunQuarter(q, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(a.Signals) == 0 {
				b.Fatal("no signals")
			}
		}
	}
}

// BenchmarkCaseStudies regenerates the Section 5.4 case-study
// evaluation: rank every planted interaction under exclusiveness.
func BenchmarkCaseStudies(b *testing.B) {
	q, gt := benchQuarter(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.NewOptions()
		opts.MinSupport = benchMinSup
		opts.TopK = 0
		a, err := core.RunQuarter(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		keys := make([]string, len(a.Signals))
		for j := range a.Signals {
			keys[j] = a.Signals[j].Key()
		}
		res := eval.Score(keys, gt.Keys())
		if res.FirstHitRank == 0 {
			b.Fatal("no planted interaction recovered")
		}
	}
}

// BenchmarkFig52_UserStudy regenerates Fig 5.2: the simulated user
// study over the full question battery.
func BenchmarkFig52_UserStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := studysim.Run(studysim.DefaultConfig(int64(i)))
		if len(res) != 6 {
			b.Fatal("battery incomplete")
		}
	}
}

// BenchmarkFigs4_GlyphRendering regenerates the Chapter 4 visuals:
// glyph, zoom, panorama and bar-chart SVGs for the top signals.
func BenchmarkFigs4_GlyphRendering(b *testing.B) {
	q, _ := benchQuarter(b)
	opts := core.NewOptions()
	opts.MinSupport = benchMinSup
	opts.TopK = 20
	a, err := core.RunQuarter(q, opts)
	if err != nil {
		b.Fatal(err)
	}
	if len(a.Signals) == 0 {
		b.Fatal("no signals")
	}
	entries := make([]glyph.PanoramaEntry, len(a.Signals))
	for i, s := range a.Signals {
		entries[i] = glyph.PanoramaEntry{Cluster: s.Cluster, Score: s.Score}
	}
	dict := a.Dict()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top := a.Signals[0]
		if len(glyph.Contextual(top.Cluster, glyph.Options{Dict: dict})) == 0 ||
			len(glyph.Zoom(top.Cluster, dict)) == 0 ||
			len(glyph.BarChart(top.Cluster, glyph.Options{Dict: dict})) == 0 ||
			len(glyph.Panorama(entries, 5, glyph.Options{Dict: dict})) == 0 {
			b.Fatal("empty rendering")
		}
	}
}

// --- engine performance benches (P1) ---

// benchClosed mines the benchmark quarter's closed itemsets with LCM
// under the pipeline's length cap, every closed set rather than only
// the pipeline's targets, so support queries cover them all.
func benchClosed(b *testing.B, db *txdb.DB) []types.FrequentSet {
	b.Helper()
	closed := lcm.MineClosed(db, lcm.Options{MinSupport: benchMinSup, MaxLen: 10})
	if len(closed) == 0 {
		b.Fatal("nothing mined")
	}
	return closed
}

// BenchmarkMineFPGrowth measures FP-Growth's full frequent-itemset
// mining under the pipeline's length cap, the cost Options.CountRules
// pays to size Fig 5.1's rule spaces.
func BenchmarkMineFPGrowth(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets := fpgrowth.Mine(db, fpgrowth.Options{MinSupport: benchMinSup, MaxLen: 10})
		if len(sets) == 0 {
			b.Fatal("nothing mined")
		}
	}
}

// BenchmarkMineLCM measures the LCM closed-itemset engine, the
// pipeline's miner, on the same workload and length cap.
func BenchmarkMineLCM(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets := lcm.MineClosed(db, lcm.Options{MinSupport: benchMinSup, MaxLen: 10})
		if len(sets) == 0 {
			b.Fatal("nothing mined")
		}
	}
}

// BenchmarkMineApriori measures the Apriori baseline on the same
// workload (frequent itemsets only; Apriori has no closed variant).
func BenchmarkMineApriori(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets := apriori.Mine(db, apriori.Options{MinSupport: benchMinSup, MaxLen: 10})
		if len(sets) == 0 {
			b.Fatal("nothing mined")
		}
	}
}

// BenchmarkSupportQueries measures exact posting-list support lookups,
// the primitive behind contextual-rule evaluation.
func BenchmarkSupportQueries(b *testing.B) {
	db := benchDB(b)
	closed := benchClosed(b, db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := closed[i%len(closed)]
		if db.Support(fs.Items) != fs.Support {
			b.Fatal("support mismatch")
		}
	}
}

// BenchmarkMCACConstruction measures cluster building over the full
// target rule set, starting from an empty support memo each time as a
// pipeline run does.
func BenchmarkMCACConstruction(b *testing.B) {
	db := benchDB(b)
	targets, _ := assoc.FromItemsets(assoc.NewEvaluator(db), benchClosed(b, db), assoc.GenOptions{MinDrugs: 2, MaxDrugs: 5})
	if len(targets) == 0 {
		b.Fatal("no targets")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clusters := mcac.BuildAll(assoc.NewEvaluator(db), targets)
		if len(clusters) == 0 {
			b.Fatal("no clusters")
		}
	}
}

// BenchmarkExclusivenessScoring measures ranking over built clusters.
func BenchmarkExclusivenessScoring(b *testing.B) {
	db := benchDB(b)
	ev := assoc.NewEvaluator(db)
	targets, _ := assoc.FromItemsets(ev, benchClosed(b, db), assoc.GenOptions{MinDrugs: 2, MaxDrugs: 5})
	clusters := mcac.BuildAll(ev, targets)
	if len(clusters) == 0 {
		b.Fatal("no clusters")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranked := rank.Rank(clusters, rank.ByExclusivenessConf, rank.Options{Theta: 0.5})
		if len(ranked) == 0 {
			b.Fatal("no ranking")
		}
	}
}

// BenchmarkPipelineEndToEnd measures the full Run over one quarter.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	q, _ := benchQuarter(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := core.NewOptions()
		opts.MinSupport = benchMinSup
		a, err := core.RunQuarter(q, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Signals) == 0 {
			b.Fatal("no signals")
		}
	}
}

// BenchmarkTrendQuarters measures the surveillance extension: mining
// and trajectory assembly over four small quarters.
func BenchmarkTrendQuarters(b *testing.B) {
	var quarters []*faers.Quarter
	for i, label := range []string{"2014Q1", "2014Q2", "2014Q3", "2014Q4"} {
		cfg := synth.DefaultConfig(label, int64(i+1))
		cfg.Reports = 2500
		q, _, err := synth.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		quarters = append(quarters, q)
	}
	opts := core.NewOptions()
	opts.MinSupport = benchMinSup
	opts.TopK = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := trend.Run(quarters, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Trajectories) == 0 {
			b.Fatal("no trajectories")
		}
	}
}

// BenchmarkEBGMFit measures the MGPS prior fit plus scoring over the
// candidate rule set.
func BenchmarkEBGMFit(b *testing.B) {
	db := benchDB(b)
	targets, _ := assoc.FromItemsets(assoc.NewEvaluator(db), benchClosed(b, db), assoc.GenOptions{MinDrugs: 2, MaxDrugs: 5})
	n := float64(db.Len())
	obs := make([]ebgm.Observation, len(targets))
	for i := range targets {
		e := float64(targets[i].AntSupport) * float64(targets[i].ConSupport) / n
		if e <= 0 {
			e = 1e-9
		}
		obs[i] = ebgm.Observation{N: targets[i].Support, E: e}
	}
	if len(obs) == 0 {
		b.Fatal("no observations")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prior, _, err := ebgm.Fit(obs, ebgm.DefaultPrior())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ebgm.Evaluate(obs, prior); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures the synthetic FAERS generator itself.
func BenchmarkGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := synth.DefaultConfig("2014Q1", int64(i))
		cfg.Reports = benchReports
		if _, _, err := synth.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCleaning measures the cleaning stage alone at varying
// misspelling pressure.
func BenchmarkCleaning(b *testing.B) {
	for _, rate := range []float64{0.0, 0.01, 0.05} {
		b.Run(fmt.Sprintf("misspell=%.2f", rate), func(b *testing.B) {
			cfg := synth.DefaultConfig("2014Q1", 5)
			cfg.Reports = benchReports
			cfg.MisspellRate = rate
			q, _, err := synth.Generate(cfg)
			if err != nil {
				b.Fatal(err)
			}
			reports := q.Reports()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _ := cleaning.Clean(reports, cleaning.Defaults())
				if len(out) == 0 {
					b.Fatal("everything cleaned away")
				}
			}
		})
	}
}

// The mine-quarter input of perfbench (perfbench/inputs.go), mirrored
// here: a fixed report population, a quarter sampled from it by seed,
// and maras-mine's options.
const (
	stagePopulationSeed    = 20180416
	stagePopulationReports = 16_500
	stageQuarterReports    = 15_000
	stageMinSupport        = 8
	stageTheta             = 0.5
)

var stagePopulation []faers.Report

// stageQuarter samples the mine-quarter input of seed as perfbench
// does: stageQuarterReports reports of the population without
// replacement, in population order.
func stageQuarter(b *testing.B, seed int64) []faers.Report {
	b.Helper()
	if stagePopulation == nil {
		cfg := synth.DefaultConfig("2014Q1", stagePopulationSeed)
		cfg.Reports = stagePopulationReports
		q, _, err := synth.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		stagePopulation = q.Reports()
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(stagePopulation))[:stageQuarterReports]
	sort.Ints(idx)
	out := make([]faers.Report, len(idx))
	for i, j := range idx {
		out[i] = stagePopulation[j]
	}
	return out
}

// stageProbe is a slog.Handler for the pipeline's stage tracer: each
// time the tracer logs a completed stage, it reads the exact
// allocation totals (runtime.ReadMemStats flushes the per-P caches, so
// nothing a stage allocated is billed to the next). The tracer's own
// bookkeeping, a few small objects per stage, is billed to the stage
// it records.
type stageProbe struct {
	names          []string
	bytes, objects []uint64 // running totals at the end of each stage
}

func (p *stageProbe) Enabled(context.Context, slog.Level) bool { return true }

func (p *stageProbe) Handle(_ context.Context, r slog.Record) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	name := ""
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "stage" {
			name = a.Value.String()
			return false
		}
		return true
	})
	p.names = append(p.names, name)
	p.bytes = append(p.bytes, ms.TotalAlloc)
	p.objects = append(p.objects, ms.Mallocs)
	return nil
}

func (p *stageProbe) WithAttrs([]slog.Attr) slog.Handler { return p }
func (p *stageProbe) WithGroup(string) slog.Handler      { return p }

// BenchmarkMineQuarterStages runs perfbench's mine-quarter input
// through core.Run and reports every pipeline stage's cost as custom
// metrics: per stage the median wall time (<stage>_ms) and the exact
// bytes and objects it allocated (<stage>_B, <stage>_objs), measured
// with the collector off for the length of each run, so a stage's time
// holds its own work and no collection that its predecessors' garbage
// set off. A second run per iteration keeps the collector on: its wall
// time (gc_on_ms) and the collections it completed (gc_on_cycles) make
// the collector's share a layer of its own. run_ms, run_B and
// run_objs are the whole collector-off run. Run it with a fixed
// iteration count, e.g.
//
//	go test -run '^$' -bench MineQuarterStages -benchtime 21x .
func BenchmarkMineQuarterStages(b *testing.B) {
	for _, seed := range []int64{1, 2} {
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			reports := stageQuarter(b, seed)
			opts := core.NewOptions()
			opts.MinSupport = stageMinSupport
			opts.Theta = stageTheta
			opts.Method = rank.ByExclusivenessConf
			opts.TopK = 0

			ms := map[string][]float64{}
			var ms0, ms1 runtime.MemStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Collector off, stage by stage.
				probe := &stageProbe{}
				traced := opts
				traced.Tracer = obs.NewTracer(slog.New(probe))
				runtime.GC()
				runtime.ReadMemStats(&ms0)
				gc := debug.SetGCPercent(-1)
				t0 := time.Now()
				if _, err := core.Run(reports, traced); err != nil {
					b.Fatal(err)
				}
				d := time.Since(t0)
				debug.SetGCPercent(gc)
				runtime.ReadMemStats(&ms1)
				ms["run_ms"] = append(ms["run_ms"], float64(d.Microseconds())/1e3)
				ms["run_B"] = append(ms["run_B"], float64(ms1.TotalAlloc-ms0.TotalAlloc))
				ms["run_objs"] = append(ms["run_objs"], float64(ms1.Mallocs-ms0.Mallocs))
				for _, r := range traced.Tracer.Records() {
					ms[r.Name+"_ms"] = append(ms[r.Name+"_ms"], float64(r.Duration().Microseconds())/1e3)
				}
				bytes, objects := ms0.TotalAlloc, ms0.Mallocs
				for k, name := range probe.names {
					ms[name+"_B"] = append(ms[name+"_B"], float64(probe.bytes[k]-bytes))
					ms[name+"_objs"] = append(ms[name+"_objs"], float64(probe.objects[k]-objects))
					bytes, objects = probe.bytes[k], probe.objects[k]
				}

				// Collector on, the whole run.
				runtime.GC()
				runtime.ReadMemStats(&ms0)
				t0 = time.Now()
				if _, err := core.Run(reports, opts); err != nil {
					b.Fatal(err)
				}
				d = time.Since(t0)
				runtime.ReadMemStats(&ms1)
				ms["gc_on_ms"] = append(ms["gc_on_ms"], float64(d.Microseconds())/1e3)
				ms["gc_on_cycles"] = append(ms["gc_on_cycles"], float64(ms1.NumGC-ms0.NumGC))
			}
			b.StopTimer()
			for unit, vals := range ms {
				slices.Sort(vals)
				b.ReportMetric(vals[len(vals)/2], unit)
			}
		})
	}
}
