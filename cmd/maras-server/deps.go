package main

import (
	"context"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/knowledge"
	"maras/internal/obs"
	"maras/internal/obs/history"
	"maras/internal/obs/prof"
	"maras/internal/obs/wide"
	"maras/internal/replica"
	"maras/internal/resilience"
	"maras/internal/slo"
	"maras/internal/store"
)

// The runtime watchdog's thresholds: the sampler warns and counts in
// maras_watchdog_trips_total when goroutines exceed
// watchdogMaxGoroutines or a GC pause exceeds watchdogMaxGCPause.
const (
	watchdogMaxGoroutines = 10000
	watchdogMaxGCPause    = 250 * time.Millisecond
)

// deps is every subsystem one server process runs, built by newDeps
// from the flag values and torn down by Close. Optional subsystems
// are nil when their flag disables them; every consumer tolerates
// that.
type deps struct {
	cfg     config
	logger  *slog.Logger
	started time.Time

	metrics *obs.Registry
	mw      *obs.HTTPMetrics
	tracer  *obs.Tracer
	journal *obs.Journal // nil with -trace-journal 0
	ready   *obs.Readiness
	events  *wide.Ring // nil with -wide-events 0
	auditor *audit.Auditor
	shed    *resilience.Bulkhead // nil with -max-inflight 0
	slos    *sloStack            // nil with -history-scrape 0
	captor  *prof.Captor         // nil without -prof-dir
	sampler *obs.RuntimeSampler  // nil with -runtime-sample 0
	ws      *watchStack
	ss      *storeServer
	node    *replica.Node // store mode only
	handler http.Handler

	closers   []func() // teardown steps, in construction order
	closeOnce sync.Once
}

// atClose registers f to run at Close, before every step registered
// earlier.
func (d *deps) atClose(f func()) { d.closers = append(d.closers, f) }

// Close stops the subsystems in reverse construction order: the
// background loops first, then the mining server's temporary registry
// directory, the runtime sampler, and the profile captor. It is
// idempotent.
func (d *deps) Close() {
	d.closeOnce.Do(func() {
		for i := len(d.closers) - 1; i >= 0; i-- {
			d.closers[i]()
		}
	})
}

// newDeps builds every subsystem from cfg and the one route surface
// over them. Without -store it mines -data/-quarter into a temporary
// one-quarter registry first, so both modes serve through the same
// registry path. The background loops and readiness wait for start.
// On error everything built so far is closed.
func newDeps(cfg config) (_ *deps, err error) {
	level, err := obs.ParseLevel(cfg.logLevel)
	if err != nil {
		return nil, err
	}
	logger := obs.NewLogger(os.Stderr, cfg.logFormat, level)
	d := &deps{cfg: cfg, logger: logger, started: time.Now()}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()

	// Arm failpoints from the environment first, then the flag (the
	// flag adds to or overrides the env spec site by site).
	if spec, err := resilience.EnableFromEnv(); err != nil {
		return nil, err
	} else if spec != "" {
		logger.Warn("failpoints armed from env", "spec", spec)
	}
	if cfg.failpoints != "" {
		if err := resilience.Enable(cfg.failpoints); err != nil {
			return nil, err
		}
		logger.Warn("failpoints armed", "spec", cfg.failpoints)
	}
	// Runtime contention profiling: off unless asked for, because both
	// collectors cost on every contention event. Set before any real
	// work so the profiles cover the whole process lifetime.
	prof.EnableMutexProfiling(cfg.mutexFraction)
	prof.EnableBlockProfiling(cfg.blockRate)

	d.metrics = obs.NewRegistry()
	d.metrics.PublishExpvar("maras_metrics")
	d.mw = obs.NewHTTPMetrics(d.metrics, logger)
	d.tracer = obs.NewTracer(logger)
	if cfg.traceCap > 0 {
		d.journal = obs.NewJournal(cfg.traceCap, cfg.traceSlow)
		d.mw.EnableTracing(d.journal)
	}
	d.ready = &obs.Readiness{}

	// Wide-event telemetry: one flat record per request (and per store
	// load, watch evaluation, and mining run) into the columnar ring
	// behind /debug/events and /debug/diag. A nil ring no-ops at every
	// emission point.
	if cfg.wideCap > 0 {
		d.events = wide.NewRing(cfg.wideCap, cfg.wideSample, d.metrics)
		d.mw.OnComplete(d.events.EmitRequest)
	}

	// The audit pillar: one event log for the process, fed by quality
	// and drift evaluations and by runtime watchdog excursions.
	alog := audit.NewLog(audit.LogOptions{Logger: logger, Metrics: d.metrics})
	d.auditor = &audit.Auditor{
		Log: alog,
		Thresholds: audit.Thresholds{
			TopK:      cfg.auditTopK,
			ChurnWarn: cfg.auditChurnWarn,
			DropWarn:  cfg.auditDropWarn,
		},
		Metrics: d.metrics,
	}

	if cfg.maxInflight > 0 {
		d.shed, err = resilience.NewBulkhead(d.metrics, resilience.BulkheadConfig{
			MaxConcurrent: cfg.maxInflight,
			MaxWaiting:    cfg.shedQueue,
			MaxWait:       cfg.shedWait,
		})
		if err != nil {
			return nil, fmt.Errorf("bulkhead: %w", err)
		}
	}

	// The SLO stack: scrape the registry into ring-buffer history and
	// evaluate burn-rate rules on every sample. Shares the audit log
	// and readiness probe with the rest of the alerting spine.
	d.slos = newSLOStack(d.metrics, alog, d.ready, logger, cfg.slo)

	if err := d.startProfiling(); err != nil {
		return nil, err
	}

	if cfg.runtimeSample > 0 {
		d.sampler = obs.NewRuntimeSampler(d.metrics, obs.RuntimeSamplerOptions{
			Interval:      cfg.runtimeSample,
			MaxGoroutines: watchdogMaxGoroutines,
			MaxGCPause:    watchdogMaxGCPause,
			Logger:        logger,
			OnViolation:   d.auditor.RecordWatchdog,
		})
		d.sampler.Start()
		d.atClose(d.sampler.Stop)
	}

	// The mining server's registry lives in a fresh temporary
	// directory; Close removes it.
	dir := cfg.store
	if dir == "" {
		if dir, err = os.MkdirTemp("", "maras-server-"); err != nil {
			return nil, err
		}
		d.atClose(func() {
			if err := os.RemoveAll(dir); err != nil {
				logger.Warn("remove temporary registry", "dir", dir, "err", err)
			}
		})
	}

	// The watchlist subsystem persists lists next to the registry's
	// snapshots unless told otherwise. Drift events reach the evaluator
	// through the audit log subscription.
	wcfg := cfg.watch
	if wcfg.file == "" {
		wcfg.file = filepath.Join(dir, "watchlists.mrwl")
	}
	if d.ws, err = newWatchStack(wcfg, knowledge.Builtin(), d.metrics, d.auditor, logger, d.events); err != nil {
		return nil, fmt.Errorf("open watchlists: %w", err)
	}
	alog.OnRecord(d.ws.ev.HandleAuditEvent)
	if d.ws.ix.Len() > 0 {
		logger.Info("watchlists loaded", "file", wcfg.file, "lists", d.ws.ix.Len())
	}

	// The registry runs with the resilience layer on: per-quarter load
	// breakers, transient-failure retry, corrupt-snapshot quarantine,
	// and the last-good copies behind graceful degradation. Every
	// load of new quarter bytes flows into the watchlist evaluator, so
	// quarter loads and refreshes fire alerts without any polling; so
	// does any cold load of a quarter a drift event has marked dirty.
	reg, err := store.OpenRegistry(dir, store.RegistryOptions{
		Metrics:    obs.NewStoreMetrics(d.metrics),
		Auditor:    d.auditor,
		OnLoad:     d.ws.onQuarterLoaded,
		Dirty:      d.ws.ev.Dirty,
		Wide:       d.events,
		Resilience: &store.ResilienceOptions{Quarantine: true},
	})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	d.ss = &storeServer{reg: reg, logger: logger, auditor: d.auditor, ready: d.ready, slos: d.slos,
		memo: &trendMemo{latest: reg.IsLatestTrend}}
	if cfg.store == "" {
		if err := d.mine(reg); err != nil {
			return nil, err
		}
	} else {
		// The replica node always exists in store mode so peers can pull
		// from this server even when it has no -peers of its own; the
		// sync loop only runs when there is someone to pull from.
		d.node = replica.NewNode(reg, replica.Options{
			Name:     cfg.addr,
			Peers:    splitPeers(cfg.peers),
			Interval: cfg.syncInterval,
			Metrics:  replica.NewMetrics(d.metrics),
			Wide:     d.events,
			Auditor:  d.auditor,
			Logger:   logger,
			OnRound: func(st replica.SyncStats) {
				d.ready.SetDegraded("replica", st.Unreachable > 0)
			},
		})
		d.ss.replica = d.node
		if len(d.node.Peers()) > 0 {
			reg.SetPeerFetch(d.node.FetchAnalysis)
		}
	}
	logger.Info("serving from store", "dir", dir,
		"quarters", len(reg.Quarters()), "default", reg.Latest())
	d.handler = routes(d)
	return d, nil
}

// startProfiling wires continuous profiling when -prof-dir is set:
// scheduled capture cycles into the on-disk artifact ring, plus
// anomaly-triggered snapshots from the audit log (watchdog violations,
// SLO burns, slow watch passes) and from the trace journal's
// slow-trace threshold. The trigger adapts audit events to plain
// strings because obs/prof cannot import internal/audit (audit → core
// → prof would cycle). Capture starts now so a startup mine is
// profiled too.
func (d *deps) startProfiling() error {
	cfg := d.cfg
	if cfg.profDir == "" {
		return nil
	}
	pstore, err := prof.OpenStore(cfg.profDir, prof.StoreOptions{
		MaxArtifacts: cfg.profRetain,
		MaxBytes:     int64(cfg.profRetainMB) << 20,
		Metrics:      d.metrics,
		Logger:       d.logger,
		// Back-link wide events to the artifact that profiled them:
		// the CPU window plus slack covers the capture's extent.
		OnAdd: func(a prof.Artifact) {
			d.events.LinkProfile(a.ID, a.TakenAt, cfg.profCPUWindow+5*time.Second)
		},
	})
	if err != nil {
		return fmt.Errorf("open profile store: %w", err)
	}
	d.captor = prof.NewCaptor(prof.CaptorOptions{
		Store:     pstore,
		CPUWindow: cfg.profCPUWindow,
		Interval:  cfg.profInterval,
		Metrics:   d.metrics,
		Logger:    d.logger,
	})
	d.captor.Start(context.Background())
	d.atClose(d.captor.Stop)
	trigger := prof.NewTrigger(prof.TriggerOptions{
		Captor:   d.captor,
		Cooldown: cfg.profCooldown,
		Metrics:  d.metrics,
		Logger:   d.logger,
	})
	d.auditor.Log.OnRecord(func(e audit.Event) {
		trigger.Observe(e.Rule, string(e.Severity), e.Scope, e.Message)
	})
	d.journal.OnSlow(func(tr obs.TraceRecord) {
		trigger.SlowTrace(tr.Name, tr.Duration())
	})
	d.logger.Info("continuous profiling enabled", "dir", cfg.profDir,
		"interval", cfg.profInterval, "cpu_window", cfg.profCPUWindow,
		"retain", cfg.profRetain, "retain_mb", cfg.profRetainMB)
	return nil
}

// mine runs the startup mine of -data/-quarter, publishes the result
// into reg, and loads it back once so the registry's OnLoad hook seeds
// the watch vocabulary and fires the startup alerts.
func (d *deps) mine(reg *store.Registry) error {
	cfg := d.cfg
	q, err := faers.LoadQuarter(cfg.data, cfg.quarter)
	if err != nil {
		return fmt.Errorf("load quarter: %w", err)
	}
	opts := core.NewOptions()
	opts.MinSupport = cfg.minsup
	opts.TopK = cfg.topK
	opts.Tracer = d.tracer
	d.logger.Info("mining", "quarter", cfg.quarter, "minsup", cfg.minsup)
	// Trace the startup mine into the journal (trace "startup") so
	// /debug/traces explains where boot time went, stage by stage.
	ctx := context.Background()
	var trace *obs.Trace
	var root *obs.Span
	if d.journal != nil {
		trace = obs.NewTrace("startup")
		ctx, root = trace.StartRoot(ctx, "startup mine "+cfg.quarter)
	}
	a, err := core.RunContext(ctx, q.Reports(), opts)
	if root != nil {
		root.End()
		d.journal.Add(trace.Snapshot())
	}
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	// The startup mine is a unit of work like any other: one wide
	// event, linked to the "startup" trace when tracing is on.
	d.events.Emit(wide.Event{
		Kind: wide.KindMine, Quarter: cfg.quarter, Status: 200,
		Duration: d.tracer.TotalDuration(), Trace: root.TraceID(),
	})
	for _, st := range d.tracer.Records() {
		d.logger.Info("pipeline stage", "stage", st.Name,
			"duration", st.Duration().Round(time.Millisecond),
			"alloc_mb", st.AllocBytes>>20)
	}
	d.logger.Info("ready", "signals", len(a.Signals), "reports", a.Stats.Reports,
		"mining_wall", d.tracer.TotalDuration().Round(time.Millisecond))
	if err := reg.Save(q.Label, a); err != nil {
		return fmt.Errorf("save mined quarter: %w", err)
	}
	if _, err := reg.Load(q.Label); err != nil {
		return fmt.Errorf("load mined quarter: %w", err)
	}
	return nil
}

// start launches the background loops — replica anti-entropy, the
// directory rescan, the metrics-history scrape, and the audit sweep
// that puts every quarter's quality and drift on the event log — and
// flips readiness. Close cancels the loops and waits out the sweep
// before stopping anything they use.
func (d *deps) start() {
	ctx, cancel := context.WithCancel(context.Background())
	if d.node != nil && len(d.node.Peers()) > 0 {
		d.node.Start(ctx)
		d.logger.Info("replica sync started", "peers", d.node.Peers(), "interval", d.cfg.syncInterval)
	}
	d.ss.reg.StartRescan(ctx, d.cfg.rescanInterval)
	d.ready.SetReady()
	// Scraping starts only once the routes exist: the first scrape
	// then sees every eagerly-registered route series, giving the
	// burn-rate windows a clean zero baseline.
	d.slos.start(ctx)
	var sweep sync.WaitGroup
	sweep.Add(1)
	go func() {
		defer sweep.Done()
		d.ss.auditSweep(ctx)
	}()
	d.atClose(func() {
		cancel()
		sweep.Wait()
	})
}

// routes assembles the one route surface: the registry-backed
// application routes (default quarter at /, any quarter under /q/,
// the cross-quarter APIs, the watch API) behind the bulkhead, the
// replica sync endpoints, and the operational endpoints. The bulkhead
// covers only the application routes, so health probes, metric
// scrapes, and peer syncs stay answerable under saturation. The JSON
// and text-heavy surfaces negotiate gzip: inventories, timelines,
// exposition text, and trace dumps compress an order of magnitude.
func routes(d *deps) http.Handler {
	ss, mw := d.ss, d.mw
	app := func(h http.HandlerFunc) http.Handler { return d.shed.Middleware(h) }
	qapp := quarterApp()
	mux := http.NewServeMux()
	mw.Handle(mux, "/api/quarters", obs.GzipHandler(app(ss.handleQuarters)))
	mw.Handle(mux, "/api/timeline/", obs.GzipHandler(app(ss.handleTimeline)))
	mw.Handle(mux, "/api/quality/", obs.GzipHandler(app(ss.handleQuality)))
	mw.Handle(mux, "/api/drift/", obs.GzipHandler(app(ss.handleDrift)))
	mw.Handle(mux, "/quarters", app(ss.handleQuartersPage))
	mw.Handle(mux, "/q/", app(func(w http.ResponseWriter, r *http.Request) { ss.handleQuarterScoped(w, r, qapp) }))
	mw.Handle(mux, "/", app(func(w http.ResponseWriter, r *http.Request) { ss.handleDefaultQuarter(w, r, qapp) }))
	d.ws.register(mux, mw, app)
	if d.node != nil {
		// Inventories are repetitive JSON, so they gzip; snapshot
		// bodies are CRC-carrying binaries and stay identity.
		mw.Handle(mux, "/sync/inventory", obs.GzipHandler(d.node.InventoryHandler()))
		mw.Handle(mux, "/sync/snapshot/", d.node.SnapshotHandler())
	}

	// Build identity is registered once per process and echoed on
	// /healthz and /readyz next to the registry detail.
	bi := obs.RegisterBuildInfo(d.metrics)
	health := func() map[string]any {
		m := bi.Detail()
		maps.Copy(m, d.healthDetail())
		return m
	}
	alog := d.auditor.Log
	mux.Handle("/metrics", obs.GzipHandler(obs.MetricsHandler(d.metrics)))
	mux.Handle("/healthz", obs.HealthzHandler(health))
	mux.Handle("/readyz", obs.ReadyzHandler(d.ready, health))
	mux.Handle("/debug/traces", obs.GzipHandler(obs.TracesHandler(d.journal)))
	mux.Handle("/debug/audit", obs.GzipHandler(audit.Handler(alog)))
	mux.Handle("/debug/history", obs.GzipHandler(history.Handler(d.slos.history())))
	mux.Handle("/api/history/", obs.GzipHandler(history.APIHandler(d.slos.history(), "/api/history/")))
	mux.Handle("/api/slo", obs.GzipHandler(slo.Handler(d.slos.engine())))
	mux.Handle("/debug/vars", obs.ExpvarHandler())
	// The profile index and JSON listing negotiate gzip like the other
	// text surfaces; artifact downloads (application/octet-stream) pass
	// through uncompressed so clients keep a trustworthy Content-Length.
	profH := obs.GzipHandler(prof.Handler(d.captor, "/debug/profiles"))
	mux.Handle("/debug/profiles", profH)
	mux.Handle("/debug/profiles/", profH)
	mux.Handle("/debug/events", obs.GzipHandler(wide.Handler(d.events)))
	mux.Handle("/debug/diag/", obs.GzipHandler(wide.DiagHandler(
		newDiag(d.events, d.journal, alog, d.slos, d.ready, d.captor), "/debug/diag/")))
	obs.RegisterPprof(mux)
	return mux
}

// healthDetail is the /healthz and /readyz detail: the serving mode
// and the registry's state, plus the replica status and any degraded
// breakers.
func (d *deps) healthDetail() map[string]any {
	reg := d.ss.reg
	mode := "store"
	if d.cfg.store == "" {
		mode = "mine"
	}
	detail := map[string]any{
		"mode":           mode,
		"store_dir":      reg.Dir(),
		"quarters":       len(reg.Quarters()),
		"open_quarters":  reg.OpenCount(),
		"default":        reg.Latest(),
		"uptime_seconds": int64(time.Since(d.started).Seconds()),
	}
	if d.node != nil {
		detail["replica"] = d.node.CurrentStatus()
	}
	if reg.Degraded() {
		detail["degraded"] = true
		open := []string{}
		for label, st := range reg.BreakerStates() {
			if st != resilience.StateClosed {
				open = append(open, label+":"+st.String())
			}
		}
		if len(open) > 0 {
			detail["breakers"] = open
		}
	}
	return detail
}
