package main

// The prof experiment validates the continuous-profiling subsystem end
// to end and gates on its three promises. Attribution: CPU samples
// recorded while the pipeline mines must overwhelmingly carry stage=
// labels, or flame graphs cannot be cut by stage. Overhead: running
// the capture loop at a steady-state duty cycle must not slow mining
// measurably. Triggering: an SLO burn on a live server must land a
// cause-tagged profile artifact that an operator can retrieve, CRC
// intact, from /debug/profiles/{id}. Failing any gate exits nonzero;
// the numbers land in BENCH_prof.json.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	rpprof "runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/obs"
	"maras/internal/obs/history"
	"maras/internal/obs/prof"
	"maras/internal/resilience"
	"maras/internal/slo"
	"maras/internal/store"
)

// Gates and knobs for the three phases.
const (
	profStageFloor   = 0.70 // min fraction of CPU samples carrying stage=
	profOverheadCap  = 0.03 // max mine slowdown under steady-state capture
	profAttribWindow = 1500 * time.Millisecond
	profMinIters     = 6               // per overhead phase
	profBaseWall     = 4 * time.Second // baseline phases run at least this long
	profMinCycles    = 2               // captured phase must see this many capture cycles
	profCaptMaxWall  = 90 * time.Second
	// A capture cycle steals ~0.2s of core time on a single-core box
	// (StopCPUProfile symbolization dominates), so steady-state
	// overhead is roughly 0.2s/interval: 30s keeps the expected cost
	// near 0.7%, well inside the 3% gate even with measurement noise.
	profCaptInterval = 30 * time.Second
	profCaptWindow   = 250 * time.Millisecond
	profBurnMaxWait  = 8 * time.Second
)

// profArtifact is the BENCH_prof.json payload.
type profArtifact struct {
	Attribution struct {
		Iterations    int                `json:"iterations"`
		ProfileMillis int64              `json:"profile_millis"`
		TotalWeight   int64              `json:"total_weight"`
		StageFraction float64            `json:"stage_fraction"`
		Stages        map[string]float64 `json:"stages"` // per stage= value share
		Pass          bool               `json:"pass"`
	} `json:"attribution"`
	Overhead struct {
		Iterations     int     `json:"captured_iterations"`
		BaselineMillis float64 `json:"baseline_mean_millis"`
		CapturedMillis float64 `json:"captured_mean_millis"`
		Cycles         uint64  `json:"capture_cycles"`
		Fraction       float64 `json:"overhead_fraction"`
		Pass           bool    `json:"pass"`
	} `json:"overhead"`
	Trigger struct {
		BreachDetectMillis int64  `json:"breach_detect_millis"`
		ArtifactID         string `json:"artifact_id"`
		Cause              string `json:"cause"`
		Event              string `json:"event"`
		Bytes              int    `json:"bytes"`
		CRCOK              bool   `json:"crc_ok"`
		ParseOK            bool   `json:"parse_ok"`
		Pass               bool   `json:"pass"`
	} `json:"trigger"`
}

// runProf drives the three-phase profiling validation and writes
// BENCH_prof.json (path from -prof-out).
func runProf(cfg benchConfig) error {
	q, _, err := genQuarter(cfg, "2014Q1", 0)
	if err != nil {
		return err
	}
	opts := core.NewOptions()
	opts.MinSupport = cfg.minsup

	var art profArtifact
	var failures []string

	// ---- Phase A: stage attribution under the profiler.
	fmt.Println("Phase A — stage attribution: profile repeated pipeline runs, parse labels back out")
	if err := profAttribution(q, opts, &art); err != nil {
		return err
	}
	fmt.Printf("  %d runs in %dms: %.1f%% of sample weight stage-labeled (floor %.0f%%)\n",
		art.Attribution.Iterations, art.Attribution.ProfileMillis,
		100*art.Attribution.StageFraction, 100*profStageFloor)
	for stage, share := range art.Attribution.Stages {
		fmt.Printf("    stage=%-12s %5.1f%%\n", stage, 100*share)
	}
	if !art.Attribution.Pass {
		failures = append(failures, fmt.Sprintf(
			"stage attribution %.1f%% below the %.0f%% floor",
			100*art.Attribution.StageFraction, 100*profStageFloor))
	}

	// ---- Phase B: steady-state capture overhead on mine wall time.
	// A smaller quarter keeps iterations short, so each phase holds
	// enough of them for a stable mean on a drifting machine.
	fmt.Println("\nPhase B — capture overhead: mine with and without the scheduled capture loop")
	cfgB := cfg
	if cfgB.reports == 0 {
		cfgB.reports = 6000
	}
	qB, _, err := genQuarter(cfgB, "2014Q1", 0)
	if err != nil {
		return err
	}
	if err := profOverhead(qB, opts, &art); err != nil {
		return err
	}
	fmt.Printf("  baseline mean %.1fms, captured mean %.1fms over %d cycles: overhead %.2f%% (cap %.0f%%)\n",
		art.Overhead.BaselineMillis, art.Overhead.CapturedMillis, art.Overhead.Cycles,
		100*art.Overhead.Fraction, 100*profOverheadCap)
	if !art.Overhead.Pass {
		failures = append(failures, fmt.Sprintf(
			"capture overhead %.2f%% exceeds the %.0f%% cap",
			100*art.Overhead.Fraction, 100*profOverheadCap))
	}

	// ---- Phase C: anomaly-triggered capture on a live burning server.
	fmt.Println("\nPhase C — triggered capture: burn the SLO on a live server, retrieve the artifact")
	if err := profTriggered(cfg, &art); err != nil {
		return err
	}
	if art.Trigger.Pass {
		fmt.Printf("  burn detected in %dms; artifact %s (%d bytes, cause %s) retrieved, CRC ok, parses\n",
			art.Trigger.BreachDetectMillis, art.Trigger.ArtifactID,
			art.Trigger.Bytes, art.Trigger.Cause)
		fmt.Printf("  linked event: %s\n", art.Trigger.Event)
	} else {
		failures = append(failures, fmt.Sprintf(
			"triggered capture failed (artifact %q, crc=%v, parse=%v)",
			art.Trigger.ArtifactID, art.Trigger.CRCOK, art.Trigger.ParseOK))
	}

	fmt.Println("\nShape check: pipeline stages run under obs.Do, so nearly every CPU sample taken")
	fmt.Println("while mining carries a stage= label; the capture loop's duty cycle keeps its cost")
	fmt.Println("inside measurement noise; and an SLO burn fires the audit subscriber, whose capture")
	fmt.Println("lands in the on-disk ring tagged with the burning rule and survives a CRC re-check.")

	if cfg.profOut != "" {
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.profOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote profiling artifact to %s\n", cfg.profOut)
	}
	if len(failures) > 0 {
		return fmt.Errorf("profiling gates failed: %s", strings.Join(failures, "; "))
	}
	return nil
}

// profAttribution profiles repeated pipeline runs and parses the
// stage-label attribution back out of the recorded profile.
func profAttribution(q *faers.Quarter, opts core.Options, art *profArtifact) error {
	// Warm-up run keeps one-time costs (page-ins, dictionary growth)
	// out of the profiled window.
	if _, err := core.RunQuarter(q, opts); err != nil {
		return err
	}

	var buf bytes.Buffer
	if err := rpprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	start := time.Now()
	iters := 0
	for iters < 2 || time.Since(start) < profAttribWindow {
		if _, err := core.RunQuarter(q, opts); err != nil {
			rpprof.StopCPUProfile()
			return err
		}
		iters++
	}
	rpprof.StopCPUProfile()
	elapsed := time.Since(start)

	stats, err := prof.ParseCPULabels(buf.Bytes())
	if err != nil {
		return fmt.Errorf("parse recorded profile: %w", err)
	}
	a := &art.Attribution
	a.Iterations = iters
	a.ProfileMillis = elapsed.Milliseconds()
	a.TotalWeight = stats.TotalWeight
	a.StageFraction = stats.Fraction(obs.LabelStage)
	a.Stages = map[string]float64{}
	if stats.TotalWeight > 0 {
		for stage, w := range stats.ByKeyValue[obs.LabelStage] {
			a.Stages[stage] = float64(w) / float64(stats.TotalWeight)
		}
	}
	a.Pass = stats.TotalWeight > 0 && a.StageFraction >= profStageFloor
	return nil
}

// profOverhead measures mine wall time in three symmetric phases —
// baseline, with the scheduled capture loop running, baseline again —
// and compares per-iteration means against the two baselines'
// average. Means matter: a capture cycle lands in one iteration out
// of several, so a median would hide exactly the cost being measured.
// Averaging baselines taken before and after the captured phase
// cancels the slow drift a long-running allocation-heavy process
// shows, which a single (or best-of) baseline would misread as
// capture cost. The capture cadence mirrors the server defaults' duty
// cycle; the captured phase keeps mining until at least profMinCycles
// cycles have fired so the cost is actually in the sample.
func profOverhead(q *faers.Quarter, opts core.Options, art *profArtifact) error {
	mine := func() (float64, error) {
		it := time.Now()
		if _, err := core.RunQuarter(q, opts); err != nil {
			return 0, err
		}
		return float64(time.Since(it).Microseconds()) / 1000, nil
	}
	baselinePhase := func() (float64, error) {
		start := time.Now()
		sum, iters := 0.0, 0
		// Time-bounded, not iteration-bounded: with short iterations a
		// handful of runs would sample too few GC cycles to match the
		// much longer captured phase's steady state. No forced GC
		// between phases either — mining runs continuously through
		// baseline → captured → baseline, so every phase sees the same
		// steady-state GC regime. (A runtime.GC() at a phase boundary
		// hands the short baselines a cheap post-collection honeymoon
		// the long captured phase doesn't get, inflating the apparent
		// overhead.)
		for iters < profMinIters || time.Since(start) < profBaseWall {
			ms, err := mine()
			if err != nil {
				return 0, err
			}
			sum += ms
			iters++
		}
		return sum / float64(iters), nil
	}

	// Untimed warmup: reach allocation steady state (dictionary
	// growth, page-ins, GC pacer) before any phase is measured.
	warmStart := time.Now()
	for i := 0; i < 2 || time.Since(warmStart) < profBaseWall; i++ {
		if _, err := mine(); err != nil {
			return err
		}
	}

	base1, err := baselinePhase()
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "maras-prof-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pstore, err := prof.OpenStore(dir, prof.StoreOptions{})
	if err != nil {
		return err
	}
	captor := prof.NewCaptor(prof.CaptorOptions{
		Store:     pstore,
		CPUWindow: profCaptWindow,
		Interval:  profCaptInterval,
	})
	ctx, cancel := context.WithCancel(context.Background())
	captor.Start(ctx)
	start := time.Now()
	sum, iters := 0.0, 0
	for iters < profMinIters || captor.Stats().Cycles < profMinCycles {
		if time.Since(start) > profCaptMaxWall {
			captor.Stop()
			cancel()
			return fmt.Errorf("capture loop fired %d/%d cycles in %s; overhead unmeasured",
				captor.Stats().Cycles, profMinCycles, profCaptMaxWall)
		}
		ms, err := mine()
		if err != nil {
			captor.Stop()
			cancel()
			return err
		}
		sum += ms
		iters++
	}
	captor.Stop()
	cancel()
	capturedMean := sum / float64(iters)
	cycles := captor.Stats().Cycles

	base2, err := baselinePhase()
	if err != nil {
		return err
	}

	baseline := (base1 + base2) / 2
	overhead := 0.0
	if baseline > 0 && capturedMean > baseline {
		overhead = capturedMean/baseline - 1
	}

	o := &art.Overhead
	o.Iterations = iters
	o.BaselineMillis = baseline
	o.CapturedMillis = capturedMean
	o.Cycles = cycles
	o.Fraction = overhead
	o.Pass = overhead < profOverheadCap
	return nil
}

// profTriggered stands up a live server with the slo experiment's
// scaled burn-rate spine plus the profiling trigger, burns the
// availability SLO with a load failpoint, and retrieves the resulting
// cause-tagged artifact over /debug/profiles like an operator would.
func profTriggered(cfg benchConfig, art *profArtifact) error {
	labels := quarterLabels[:2]
	dir, err := os.MkdirTemp("", "maras-prof-slo-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for i, label := range labels {
		q, _, err := genQuarter(cfg, label, int64(i))
		if err != nil {
			return err
		}
		opts := core.NewOptions()
		opts.MinSupport = cfg.minsup
		a, err := tracedRun("prof", q, opts)
		if err != nil {
			return err
		}
		if err := store.WriteFile(filepath.Join(dir, label+store.Ext), label, a); err != nil {
			return err
		}
	}

	reg := obs.NewRegistry()
	sreg, err := store.OpenRegistry(dir, store.RegistryOptions{
		MaxOpen: 1,
		Metrics: obs.NewStoreMetrics(reg),
	})
	if err != nil {
		return err
	}
	alog := audit.NewLog(audit.LogOptions{Metrics: reg})
	ready := &obs.Readiness{}
	ready.SetReady()
	mw := obs.NewHTTPMetrics(reg, nil)
	hist := history.New(reg, history.Options{
		Interval:  sloScrapeEvery,
		Retention: 2 * time.Minute,
	})
	eng := slo.NewEngine(hist, slo.Config{
		Objectives: slo.DefaultObjectives(sloAvailTarget, sloP99Target, 0.5, 0.5),
		Rules:      slo.DefaultRules(sloWindowScale),
		Log:        alog,
		Ready:      ready,
		Metrics:    reg,
	})
	hist.OnScrape(eng.Tick)

	// The profiling stack, wired exactly as maras-server wires it: the
	// audit subscriber adapts events into the trigger, the trigger
	// dedups per cause and captures on its own goroutine.
	pdir, err := os.MkdirTemp("", "maras-prof-artifacts-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(pdir)
	pstore, err := prof.OpenStore(pdir, prof.StoreOptions{Metrics: reg})
	if err != nil {
		return err
	}
	captor := prof.NewCaptor(prof.CaptorOptions{
		Store:         pstore,
		TriggerWindow: 200 * time.Millisecond,
		Interval:      0, // triggered captures only
	})
	trigger := prof.NewTrigger(prof.TriggerOptions{
		Captor:   captor,
		Cooldown: 30 * time.Second,
	})
	var burned atomic.Bool
	alog.OnRecord(func(e audit.Event) {
		trigger.Observe(e.Rule, string(e.Severity), e.Scope, e.Message)
		if e.Rule == "slo_burn" && e.Severity == audit.SevFail {
			burned.Store(true)
		}
	})

	mux := http.NewServeMux()
	mw.Handle(mux, "/q/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		label := strings.TrimPrefix(r.URL.Path, "/q/")
		a, _, err := sreg.LoadResilient(r.Context(), label)
		if err != nil {
			http.Error(w, "quarter unavailable: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "%s: %d signals\n", label, len(a.Signals))
	}))
	profH := prof.Handler(captor, "/debug/profiles")
	mux.Handle("/debug/profiles", profH)
	mux.Handle("/debug/profiles/", profH)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hist.Start(ctx)

	resilience.Seed(cfg.seed)
	defer resilience.DisableAll()
	client := ts.Client()
	// Round-robin across quarters: MaxOpen 1 keeps the LRU churning so
	// every request walks the disk path the failpoint arms.
	seq := 0
	hit := func() {
		label := labels[seq%len(labels)]
		seq++
		resp, err := client.Get(ts.URL + "/q/" + label)
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Clean traffic establishes baselines, then the armed failpoint
	// drives 5xx far past the fast-burn budget.
	cleanStart := time.Now()
	for time.Since(cleanStart) < sloCleanFor {
		hit()
		time.Sleep(sloRequestGap)
	}
	if err := resilience.Enable(resilience.FPLoad + sloFaultSpec); err != nil {
		return err
	}
	burnStart := time.Now()
	for time.Since(burnStart) < profBurnMaxWait && !burned.Load() {
		hit()
		time.Sleep(sloRequestGap)
	}
	art.Trigger.BreachDetectMillis = time.Since(burnStart).Milliseconds()
	resilience.DisableAll()
	if !burned.Load() {
		return fmt.Errorf("fault mix never drove an slo_burn fail event in %s", profBurnMaxWait)
	}
	// The capture runs asynchronously off the audit subscriber; wait
	// for it to land before asking the server for it.
	trigger.Wait()

	// Retrieve like an operator: index first, then the artifact.
	resp, err := client.Get(ts.URL + "/debug/profiles?format=json")
	if err != nil {
		return err
	}
	var index struct {
		Artifacts []prof.Artifact `json:"artifacts"`
	}
	err = json.NewDecoder(resp.Body).Decode(&index)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("decode /debug/profiles index: %w", err)
	}
	var burnArt prof.Artifact
	for _, a := range index.Artifacts {
		if a.Cause == "slo_burn" && a.Kind == "cpu" {
			burnArt = a
		}
	}
	if burnArt.ID == "" {
		return fmt.Errorf("no cpu artifact with cause slo_burn in the index (%d artifacts)", len(index.Artifacts))
	}
	resp, err = client.Get(ts.URL + "/debug/profiles/" + burnArt.ID)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetch artifact %s: status %d, err %v", burnArt.ID, resp.StatusCode, err)
	}

	tr := &art.Trigger
	tr.ArtifactID = burnArt.ID
	tr.Cause = burnArt.Cause
	tr.Event = burnArt.Event
	tr.Bytes = len(body)
	tr.CRCOK = crc32.ChecksumIEEE(body) == burnArt.CRC
	_, perr := prof.ParseCPULabels(body)
	tr.ParseOK = perr == nil
	tr.Pass = tr.Bytes > 0 && tr.CRCOK && tr.ParseOK && tr.Event != ""
	return nil
}
