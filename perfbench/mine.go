package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/knowledge"
	"maras/internal/obs"
	"maras/internal/synth"
	"maras/internal/txdb"
	"maras/internal/types"
)

// stageCounters maps the stage tracer's domain counters to the
// per-layer count metrics they feed.
var stageCounters = []struct{ stage, counter, metric string }{
	{core.StageMine, "frequent_itemsets", "fpgrowth.frequent_itemsets"},
	{core.StageClosure, "closed_itemsets", "closure.closed_itemsets"},
	{core.StageRules, "rules_kept", "assoc.rules_kept"},
	{core.StageCluster, "clusters_built", "mcac.clusters"},
}

// runMine is the mine-quarter workload: one synthetic quarter of the
// generator's default size, mined through core.Run with maras-mine's
// options, again and again for the run length. The set-up (generating
// the quarter's reports) is repeated before every core.Run, so its
// median is sampled across the whole run, under the same machine
// conditions as the mining, instead of within its first second.
func runMine(c *config) (*outcome, error) {
	o := newOutcome()
	var truth *synth.GroundTruth
	setup := func() ([]faers.Report, error) {
		pool, gt, err := population()
		if err != nil {
			return nil, err
		}
		truth = gt
		return sampleReports(pool, mineReports, c.seed), nil
	}
	o.info["quarter_reports"] = []int{mineReports}
	o.info["quarter_count"] = 1
	o.info["population_reports"] = populationReports
	o.info["options"] = fmt.Sprintf("minsup=%d theta=%g method=exclusiveness-conf topk=all", minSupport, theta)

	if !c.trace {
		cpu0 := selfCPUSeconds()
		runs, err := mineLoop(setup, c.seconds, nil)
		if err != nil {
			return nil, err
		}
		var total float64
		for _, t := range runs.times {
			total += t
		}
		o.e2e["setup_s"] = median(runs.setups)
		o.e2e["op_p50_ms"] = 1000 * median(runs.times)
		o.e2e["op_p99_ms"] = 1000 * quantile(runs.times, 0.99)
		o.e2e["ops_per_s"] = float64(len(runs.times)) / total
		o.e2e["mem_mb"] = median(runs.live)
		o.named["mine_s"] = median(runs.times)
		o.named["mine_s_max"] = quantile(runs.times, 1)
		o.named["mine_peak_heap_mb"] = median(runs.peaks)
		o.named["mine_peak_live_heap_mb"] = median(runs.live)
		o.named["mines"] = float64(len(runs.times))
		o.named["loadgen.cpu_s"] = selfCPUSeconds() - cpu0
		return checkRuns(o, runs, truth), nil
	}
	// Traced and untraced runs alternate for twice the run length, so
	// the tracing overhead is not confounded with the machine's drift.
	spans := newSpanLog()
	cpu0 := selfCPUSeconds()
	runs, err := mineLoop(setup, 2*c.seconds, spans)
	if err != nil {
		return nil, err
	}
	o.layers["loadgen.cpu_s"] = selfCPUSeconds() - cpu0
	mineLayers(o, runs)
	o.spans = spans
	return checkRuns(o, runs, truth), nil
}

// checkRuns checks the last run in full, and requires every other run
// to have ranked the same signals.
func checkRuns(o *outcome, runs *mineRuns, truth *synth.GroundTruth) *outcome {
	checks, failures := checkMine(runs.last, truth)
	o.checks = checks
	o.fail(failures...)
	digest := signalDigest(runs.last)
	o.info["signal_digest"] = digest
	o.attempted = len(runs.digests)
	differ := 0
	for _, d := range runs.digests {
		if d != digest {
			differ++
		}
	}
	if differ > 0 {
		o.fail(fmt.Sprintf("%d of %d runs ranked signals other than the last run's", differ, o.attempted))
	}
	// A run fails when its ranking differs from the checked one; when the
	// checked ranking itself fails, no run's output can be trusted.
	o.failed = differ
	if len(failures) > 0 {
		o.failed = o.attempted
	}
	o.named["error_share"] = float64(o.failed) / float64(o.attempted)
	return o
}

// mineRuns is what one mining loop measured.
type mineRuns struct {
	setups  []float64           // wall seconds of the set-up before each core.Run
	times   []float64           // wall seconds per core.Run
	peaks   []float64           // peak heap objects MiB per core.Run
	live    []float64           // peak live heap MiB per core.Run
	digests []string            // signal digest per core.Run
	stages  [][]obs.StageRecord // stage trace per core.Run, nil when untraced
	last    *core.Analysis
}

// mineLoop sets up and mines until the run length is used up (at least
// twice). With a span log it traces every other run through a fresh
// stage tracer and records a span around each traced core.Run with its
// stages as children.
func mineLoop(setup func() ([]faers.Report, error), runFor time.Duration, spans *spanLog) (*mineRuns, error) {
	m := &mineRuns{}
	start := time.Now()
	for len(m.times) < 2 || time.Since(start) < runFor {
		s0 := time.Now()
		reports, err := setup()
		if err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(s0).Seconds())
		opts := mineOptions()
		if spans != nil && len(m.times)%2 == 1 {
			opts.Tracer = obs.NewTracer(nil)
		}
		// The previous run's analysis is released first, so the heap
		// sampled below holds this run's data alone.
		m.last = nil
		runtime.GC()
		hs := startHeapSampler()
		t0 := time.Now()
		a, err := core.Run(reports, opts)
		d := time.Since(t0)
		peak := hs.stop()
		if err != nil {
			return nil, fmt.Errorf("core.Run: %w", err)
		}
		m.last = a
		m.times = append(m.times, d.Seconds())
		m.peaks = append(m.peaks, peak.objects)
		m.live = append(m.live, peak.live)
		m.digests = append(m.digests, signalDigest(a))
		m.stages = append(m.stages, opts.Tracer.Records())
		if opts.Tracer != nil {
			tr := spans.newTrace()
			root := spans.add(tr, 0, "core.Run", t0, d, true)
			at := t0
			for _, r := range opts.Tracer.Records() {
				spans.add(tr, root, "stage:"+r.Name, at, r.Duration(), true)
				at = at.Add(r.Duration())
			}
		}
	}
	return m, nil
}

// mineLayers turns the traced runs into the per-layer metrics: every
// stage's median wall time and allocation, the part of core.Run the
// stages leave uncovered, the stage counters, and the tracing overhead
// against the untraced runs in between.
func mineLayers(o *outcome, runs *mineRuns) {
	byStage := map[string][]float64{}
	allocs := map[string][]float64{}
	var traced, untraced, uncovered, shares []float64
	var last []obs.StageRecord
	for i, rs := range runs.stages {
		if rs == nil {
			untraced = append(untraced, runs.times[i])
			continue
		}
		var sum float64
		for _, r := range rs {
			byStage[r.Name] = append(byStage[r.Name], r.Duration().Seconds())
			allocs[r.Name] = append(allocs[r.Name], float64(r.AllocBytes)/(1<<20))
			sum += r.Duration().Seconds()
		}
		traced = append(traced, runs.times[i])
		uncovered = append(uncovered, runs.times[i]-sum)
		shares = append(shares, (runs.times[i]-sum)/runs.times[i])
		last = rs
	}
	for _, st := range core.StageOrder() {
		o.layers["stage."+st+".s"] = median(byStage[st])
		o.layers["stage."+st+".alloc_mb"] = median(allocs[st])
	}
	o.layers["stage.uncovered.s"] = median(uncovered)
	o.layers["stage.uncovered_share"] = median(shares)
	for _, sc := range stageCounters {
		for _, r := range last {
			if r.Name == sc.stage {
				o.layers[sc.metric] = float64(r.Counters[sc.counter])
			}
		}
	}
	if f := o.layers["fpgrowth.frequent_itemsets"]; f > 0 {
		o.layers["closure.kept_ratio"] = o.layers["closure.closed_itemsets"] / f
	}
	o.layers["mine.traced_s"] = median(traced)
	o.layers["mine.untraced_s"] = median(untraced)
	o.layers["trace.overhead_ratio"] = median(traced)/median(untraced) - 1
}

// checkMine verifies one mined quarter: contiguous ranks with
// non-increasing scores, at least two drugs per signal, every reported
// support equal to a recount through the transaction database's support
// query, and exactly the planted interactions that the data makes
// closed frequent drug sets recovered as signals.
func checkMine(a *core.Analysis, truth *synth.GroundTruth) (map[string]any, []string) {
	var failures []string
	failf := func(format string, args ...any) {
		if len(failures) < 10 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}
	db, dict := a.DB(), a.Dict()
	keys := map[string]bool{}
	for i, s := range a.Signals {
		if s.Rank != i+1 {
			failf("signal %d has rank %d", i+1, s.Rank)
		}
		if i > 0 && s.Score > a.Signals[i-1].Score {
			failf("rank %d scores %g above rank %d's %g", s.Rank, s.Score, i, a.Signals[i-1].Score)
		}
		if len(s.Drugs) < 2 {
			failf("rank %d has %d drugs", s.Rank, len(s.Drugs))
		}
		set, ok := lookupAll(dict, s.Drugs, s.Reactions)
		if !ok {
			failf("rank %d names an item the dictionary lacks", s.Rank)
		} else if n := db.Support(set); n != s.Support {
			failf("rank %d reports support %d, recount gives %d", s.Rank, s.Support, n)
		}
		keys[knowledge.DrugKey(s.Drugs)] = true
	}
	expected, recovered := 0, 0
	for _, in := range truth.Interactions {
		want, got := plantedExpected(db, dict, in.Drugs), keys[knowledge.DrugKey(in.Drugs)]
		if want {
			expected++
		}
		if got {
			recovered++
		}
		if want != got {
			failf("planted %s: expected a signal %v, found one %v", knowledge.DrugKey(in.Drugs), want, got)
		}
	}
	if len(a.Signals) == 0 {
		failf("no signals mined")
	}
	return map[string]any{
		"signals":           len(a.Signals),
		"planted":           len(truth.Interactions),
		"planted_expected":  expected,
		"planted_recovered": recovered,
		"failures":          failures,
	}, failures
}

// plantedExpected decides from the definitions whether the miner must
// report a signal whose drugs are exactly drugs: some reaction occurs
// with all of them in at least minSupport transactions, and the
// closure of drugs+reaction (the items every such transaction shares)
// adds no further drug, so it is a closed itemset with that drug set.
func plantedExpected(db *txdb.DB, dict *types.Dictionary, drugs []string) bool {
	d, ok := lookupAll(dict, drugs)
	if !ok {
		return false
	}
	tids := db.TIDs(d, nil)
	with := map[types.Item][]txdb.TID{}
	for _, tid := range tids {
		for _, it := range db.Tx(tid).Items {
			if dict.IsReaction(it) {
				with[it] = append(with[it], tid)
			}
		}
	}
	for _, ts := range with {
		if len(ts) < minSupport {
			continue
		}
		closure := db.Tx(ts[0]).Items
		for _, tid := range ts[1:] {
			closure = closure.Intersect(db.Tx(tid).Items)
		}
		extra := 0
		for _, it := range closure {
			if dict.IsDrug(it) && !d.Contains(it) {
				extra++
			}
		}
		if extra == 0 {
			return true
		}
	}
	return false
}

// lookupAll encodes drug and reaction names into an itemset.
func lookupAll(dict *types.Dictionary, groups ...[]string) (types.Itemset, bool) {
	var items []types.Item
	for _, g := range groups {
		for _, name := range g {
			it := dict.Lookup(name)
			if it == types.NoItem {
				return nil, false
			}
			items = append(items, it)
		}
	}
	return types.NewItemset(items...), true
}

// heapPeaks are the largest heap sizes seen during one core.Run, in
// MiB: all heap objects, garbage not yet swept included, and the heap
// the last collection found live. The first swings with how far the
// collector lags the allocator on a busy machine; the second is what
// the run needs.
type heapPeaks struct{ objects, live float64 }

// heapSampler polls the heap sizes every millisecond and keeps the
// largest values seen.
type heapSampler struct {
	stopc chan struct{}
	done  chan heapPeaks
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan heapPeaks)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/heap/live:bytes"}}
		var objects, live uint64
		read := func() {
			metrics.Read(s)
			objects = max(objects, s[0].Value.Uint64())
			live = max(live, s[1].Value.Uint64())
		}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-h.stopc:
				read()
				h.done <- heapPeaks{objects: float64(objects) / (1 << 20), live: float64(live) / (1 << 20)}
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peaks.
func (h *heapSampler) stop() heapPeaks {
	close(h.stopc)
	return <-h.done
}
