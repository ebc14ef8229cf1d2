// Command maras-server serves the MARAS interactive visual interface
// (Chapter 4): a panoramagram of contextual glyphs over the ranked
// signals, per-signal zoom views with the MCAC bar-chart alternative,
// drug/reaction search, and drill-down to the raw supporting reports.
//
// There is one serving path, over a snapshot registry (see store.go):
// the latest quarter at /, every quarter under /q/{label}/..., the
// inventory at /api/quarters, cross-quarter signal trajectories at
// /api/timeline/{drugkey}, and the quality/drift audit surfaces. The
// two modes differ only in where the registry's snapshots come from:
//
//	maras-server -data data -quarter 2014Q1 [-minsup 8] [-top 60] ...
//	maras-server -store snapshots/ ...
//
// Without -store the server mines -data/-quarter once at startup,
// writes the result into a fresh temporary registry directory (removed
// on shutdown) and serves that one-quarter registry. With -store it
// mines nothing and serves the pre-mined snapshots (written by
// maras-mine -snapshot-out) in the given directory.
//
// The server is fully instrumented (see README "Observability"):
// every route carries request logging, latency histograms, status
// counters, and panic recovery; /metrics serves Prometheus text (or
// the expvar JSON dump with ?format=json), /healthz reports liveness
// and /readyz readiness, both with the registry detail, /debug/vars
// is the standard expvar endpoint, and /debug/pprof/* exposes the
// runtime profiler. Shutdown on SIGINT/SIGTERM drains in-flight
// requests, then stops every subsystem (deps.Close).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"html/template"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"maras/internal/core"
	"maras/internal/glyph"
	"maras/internal/network"
	"maras/internal/obs"
	"maras/internal/obs/prof"
	"maras/internal/obs/wide"
	"maras/internal/replica"
	"maras/internal/resilience"
	"maras/internal/strata"
	"maras/internal/watch"
)

// svgCacheControl marks the per-rank SVG renders as immutable: a
// rank's glyph never changes within one server process, so browsers
// paging through the panoramagram should not re-fetch.
const svgCacheControl = "public, max-age=86400, immutable"

// shutdownGrace bounds how long graceful shutdown waits for in-flight
// requests to drain.
const shutdownGrace = 15 * time.Second

// server is one quarter's view of the application: the handlers below
// render its analysis. serveQuarter builds one per request around the
// registry's resident analysis.
type server struct {
	analysis *core.Analysis
	quarter  string
	logger   *slog.Logger
}

// log returns the configured logger, or a discard logger so handler
// code never nil-checks (tests construct bare servers).
func (s *server) log() *slog.Logger {
	if s.logger != nil {
		return s.logger
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// config carries the command-line flag values, nothing more.
type config struct {
	data, quarter, store, addr string
	minsup, topK               int
	logFormat, logLevel        string

	traceCap  int
	traceSlow time.Duration

	wideCap, wideSample int

	runtimeSample time.Duration

	auditTopK                     int
	auditChurnWarn, auditDropWarn float64

	slo   sloOptions
	watch watchConfig

	profDir                     string
	profCPUWindow, profInterval time.Duration
	profRetain, profRetainMB    int
	profCooldown                time.Duration
	mutexFraction               int
	blockRate                   time.Duration

	peers          string
	syncInterval   time.Duration
	replicaListen  string
	rescanInterval time.Duration

	failpoints             string
	maxInflight, shedQueue int
	shedWait               time.Duration
}

// parseConfig defines the server's flags on fs, parses args, and
// rejects combinations that cannot run.
func parseConfig(fs *flag.FlagSet, args []string) (config, error) {
	var c config
	fs.StringVar(&c.data, "data", "data", "directory with FAERS quarter files")
	fs.StringVar(&c.quarter, "quarter", "2014Q1", "quarter label")
	fs.StringVar(&c.store, "store", "", "serve pre-mined quarter snapshots from this directory instead of mining")
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.minsup, "minsup", 8, "absolute minimum support")
	fs.IntVar(&c.topK, "top", 60, "signals to keep")
	fs.StringVar(&c.logFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&c.logLevel, "log-level", "info", "log level: debug, info, warn, error")

	fs.IntVar(&c.traceCap, "trace-journal", obs.DefaultJournalCapacity, "completed request traces kept in the in-memory journal (0 disables span tracing)")
	fs.DurationVar(&c.traceSlow, "trace-slow", obs.DefaultSlowThreshold, "requests at or above this duration are flagged slow in the trace journal")

	fs.IntVar(&c.wideCap, "wide-events", wide.DefaultCapacity, "wide events kept in the in-memory ring behind /debug/events and /debug/diag (0 disables wide-event telemetry)")
	fs.IntVar(&c.wideSample, "wide-sample", 1, "keep every Nth wide event (1 keeps all)")

	fs.DurationVar(&c.runtimeSample, "runtime-sample", obs.DefaultSampleInterval, "runtime health sampling interval (0 disables the sampler)")

	fs.IntVar(&c.auditTopK, "audit-topk", 25, "audit: rank cutoff for drift comparison (negative = all signals)")
	fs.Float64Var(&c.auditChurnWarn, "audit-churn-warn", 0.5, "audit: warn when the top-K churn rate between quarters reaches this")
	fs.Float64Var(&c.auditDropWarn, "audit-drop-warn", 0.6, "audit: warn when a quarter's cleaning drop rate reaches this")

	fs.DurationVar(&c.slo.scrape, "history-scrape", 10*time.Second, "metrics history scrape interval (0 disables history and the SLO engine)")
	fs.DurationVar(&c.slo.retention, "history-retention", 6*time.Hour, "how far back metrics history windows can reach")
	fs.Float64Var(&c.slo.availability, "slo-availability", 0.995, "SLO: target fraction of requests answered without a 5xx (0 disables)")
	fs.DurationVar(&c.slo.p99, "slo-p99", 500*time.Millisecond, "SLO: p99 request latency target (0 disables)")
	fs.Float64Var(&c.slo.staleCeiling, "slo-stale-ceiling", 0.05, "SLO: max fraction of requests served from the stale cache (0 disables)")
	fs.Float64Var(&c.slo.shedCeiling, "slo-shed-ceiling", 0.10, "SLO: max fraction of requests shed by the bulkhead (0 disables)")
	fs.Float64Var(&c.slo.windowScale, "slo-window-scale", 1, "SLO: multiply the burn-rate rule windows (sub-1 values shrink 5m/1h to test burn dynamics quickly)")
	fs.DurationVar(&c.slo.cooldown, "slo-cooldown", 0, "SLO: clean time before an active breach clears (0 = each rule's short window)")

	fs.StringVar(&c.watch.file, "watch-file", "", "persist watchlists to this snapshot file (default <registry dir>/watchlists.mrwl; the mining server's registry dir is temporary)")
	fs.IntVar(&c.watch.userCap, "watch-user-cap", 100, "max watchlists per user")
	fs.IntVar(&c.watch.feedCap, "watch-feed-cap", watch.DefaultFeedCapacity, "alerts retained per user feed")
	fs.DurationVar(&c.watch.budget, "watch-eval-budget", watch.DefaultEvalBudget, "watch evaluation latency budget; slower passes raise a warn audit event")

	fs.StringVar(&c.profDir, "prof-dir", "", "continuous profiling: record capture artifacts into this directory (empty disables)")
	fs.DurationVar(&c.profCPUWindow, "prof-cpu-window", prof.DefaultCPUWindow, "continuous profiling: CPU sampling window per scheduled capture")
	fs.DurationVar(&c.profInterval, "prof-interval", prof.DefaultInterval, "continuous profiling: scheduled capture period (0 keeps only anomaly-triggered captures)")
	fs.IntVar(&c.profRetain, "prof-retain", prof.DefaultMaxArtifacts, "continuous profiling: capture artifacts retained on disk")
	fs.IntVar(&c.profRetainMB, "prof-retain-mb", 64, "continuous profiling: megabytes of capture artifacts retained on disk")
	fs.DurationVar(&c.profCooldown, "prof-trigger-cooldown", prof.DefaultCooldown, "continuous profiling: minimum gap between anomaly-triggered captures of the same cause")
	fs.IntVar(&c.mutexFraction, "mutex-profile-fraction", 0, "sample 1/N of mutex contention events into /debug/pprof/mutex (0 disables)")
	fs.DurationVar(&c.blockRate, "block-profile-rate", 0, "record goroutine blocking events at least this long into /debug/pprof/block (0 disables)")

	fs.StringVar(&c.peers, "peers", "", "comma-separated base URLs of replica peers to sync snapshots from (store mode only)")
	fs.DurationVar(&c.syncInterval, "sync-interval", replica.DefaultInterval, "anti-entropy sync loop period, jittered ±25% (effective with -peers)")
	fs.StringVar(&c.replicaListen, "replica-listen", "", "serve the /sync/* replica endpoints on this extra listener too (store mode only; they are always mounted on -addr outside the bulkhead)")
	fs.DurationVar(&c.rescanInterval, "rescan-interval", 0, "re-scan the snapshot directory on this jittered period to pick up externally written files (0 disables; store mode only)")

	fs.StringVar(&c.failpoints, "failpoints", "", "arm fault-injection sites, e.g. 'store/decode=error*1;store/load=delay(50ms,0.2)' (also read from "+resilience.FailpointEnv+")")
	fs.IntVar(&c.maxInflight, "max-inflight", 64, "bulkhead: application requests executing concurrently (0 disables load shedding)")
	fs.IntVar(&c.shedQueue, "shed-queue", 64, "bulkhead: requests allowed to queue for a slot before overflow sheds with 503")
	fs.DurationVar(&c.shedWait, "shed-wait", 250*time.Millisecond, "bulkhead: how long a queued request waits for a slot before being shed")

	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if _, err := obs.ParseLevel(c.logLevel); err != nil {
		return c, err
	}
	// Replication only makes sense over an on-disk snapshot store: a
	// mining server's registry is a temporary directory with nothing
	// worth advertising to peers.
	if c.store == "" && (c.peers != "" || c.replicaListen != "" || c.rescanInterval > 0) {
		return c, errors.New("-peers, -replica-listen, and -rescan-interval require -store")
	}
	return c, nil
}

func main() {
	cfg, err := parseConfig(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "maras-server:", err)
		os.Exit(2)
	}
	d, err := newDeps(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "maras-server:", err)
		os.Exit(1)
	}
	err = serve(d)
	d.Close()
	if err != nil {
		d.logger.Error("serve", "err", err)
		os.Exit(1)
	}
}

// serve starts d's background loops, listens on -addr (and
// -replica-listen), and on SIGINT/SIGTERM drains in-flight requests.
// The caller closes d afterwards.
func serve(d *deps) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	d.start()

	newServer := func(addr string, h http.Handler) *http.Server {
		return &http.Server{
			Addr:              addr,
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			// Generous write timeout: /debug/pprof/profile streams for
			// 30s (configurable via ?seconds=) and must not be cut off.
			WriteTimeout: 2 * time.Minute,
			IdleTimeout:  2 * time.Minute,
			ErrorLog:     slog.NewLogLogger(d.logger.Handler(), slog.LevelWarn),
		}
	}
	// An optional second listener carries only the replica sync
	// endpoints, so operators can keep peer traffic off the public
	// address (and firewall the two apart).
	var replicaSrv *http.Server
	if d.cfg.replicaListen != "" {
		rmux := http.NewServeMux()
		d.node.Mount(rmux)
		replicaSrv = newServer(d.cfg.replicaListen, rmux)
		go func() {
			if err := replicaSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				d.logger.Error("replica listener", "err", err)
			}
		}()
		d.logger.Info("replica sync listening", "addr", d.cfg.replicaListen)
	}
	srv := newServer(d.cfg.addr, d.handler)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	d.logger.Info("listening", "addr", d.cfg.addr)

	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills hard
	d.logger.Info("signal received, draining in-flight requests", "grace", shutdownGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if replicaSrv != nil {
		if err := replicaSrv.Shutdown(shutdownCtx); err != nil {
			d.logger.Warn("replica listener shutdown", "err", err)
		}
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	d.logger.Info("drained cleanly")
	return nil
}

// splitPeers parses the -peers flag: comma-separated base URLs,
// whitespace-tolerant, trailing slashes dropped, empties skipped.
func splitPeers(spec string) []string {
	var out []string
	for _, p := range strings.Split(spec, ",") {
		p = strings.TrimSuffix(strings.TrimSpace(p), "/")
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}

// renderHTML executes a template into a buffer first so a mid-render
// failure can still produce a clean 500 instead of a half-written
// page (once bytes hit the wire the status is unfixable). The render
// runs under a "render:<name>" child span of the request trace.
func (s *server) renderHTML(w http.ResponseWriter, r *http.Request, name string, tmpl *template.Template, data any) {
	_, span := obs.StartSpan(r.Context(), "render:"+name)
	defer span.End()
	var buf bytes.Buffer
	if err := tmpl.Execute(&buf, data); err != nil {
		s.log().Error("template render", "template", name, "err", err)
		http.Error(w, "internal render error", http.StatusInternalServerError)
		return
	}
	span.SetInt("bytes", int64(buf.Len()))
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if _, err := buf.WriteTo(w); err != nil {
		s.log().Warn("response write", "template", name, "err", err)
	}
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>MARAS — {{.Quarter}}</title>
<style>
body{font-family:sans-serif;margin:2em;background:#fafafa}
.grid{display:flex;flex-wrap:wrap;gap:12px}
.card{background:#fff;border:1px solid #ddd;border-radius:8px;padding:8px;width:180px;text-align:center}
.card a{text-decoration:none;color:#333;font-size:12px}
.known{color:#b33}
input{padding:6px;width:260px}
</style></head><body>
<h1>MARAS — Multi-Drug ADR Signals ({{.Quarter}})</h1>
<p>{{.Reports}} reports · {{.Drugs}} drugs · {{.Reactions}} reactions ·
{{.SignalCount}} ranked signals. Larger core + shorter sectors = more exclusive interaction.</p>
<form method="get"><input name="q" placeholder="search drug or reaction" value="{{.Query}}"></form>
<div class="grid">
{{range .Signals}}
  <div class="card">
    <a href="/signal/{{.Rank}}">
      <img src="/glyph/{{.Rank}}" width="160" height="160" alt="glyph">
      <div><b>#{{.Rank}}</b> {{.DrugList}}</div>
      <div>score {{printf "%.3f" .Score}}{{if .Known}} · <span class="known">known</span>{{end}}</div>
    </a>
  </div>
{{end}}
</div></body></html>`))

type indexData struct {
	Quarter     string
	Reports     int
	Drugs       int
	Reactions   int
	SignalCount int
	Query       string
	Signals     []indexSignal
}

type indexSignal struct {
	Rank     int
	Score    float64
	DrugList string
	Known    bool
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	query := strings.TrimSpace(r.URL.Query().Get("q"))
	signals := s.analysis.Signals
	if query != "" {
		// FilterSignals matches case-insensitively; one query suffices.
		signals = s.analysis.FilterSignals(query)
	}
	d := indexData{
		Quarter:     s.quarter,
		Reports:     s.analysis.Stats.Reports,
		Drugs:       s.analysis.Stats.Drugs,
		Reactions:   s.analysis.Stats.Reactions,
		SignalCount: len(s.analysis.Signals),
		Query:       query,
	}
	for _, sig := range signals {
		d.Signals = append(d.Signals, indexSignal{
			Rank:     sig.Rank,
			Score:    sig.Score,
			DrugList: strings.Join(sig.Drugs, " + "),
			Known:    sig.Known != nil,
		})
	}
	s.renderHTML(w, r, "index", indexTmpl, d)
}

var signalTmpl = template.Must(template.New("signal").Parse(`<!DOCTYPE html>
<html><head><title>MARAS signal #{{.Rank}}</title>
<style>
body{font-family:sans-serif;margin:2em;background:#fafafa}
.row{display:flex;gap:24px;align-items:flex-start}
table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:4px 8px;font-size:13px}
.known{background:#fee;padding:8px;border-radius:6px}
</style></head><body>
<p><a href="/">&larr; all signals</a></p>
<h1>#{{.Rank}} {{.DrugList}} &rArr; {{.ReactionList}}</h1>
<p>score {{printf "%.4f" .Score}} · support {{.Support}} · confidence {{printf "%.3f" .Confidence}} · lift {{printf "%.2f" .Lift}}{{if .SOCList}} · {{.SOCList}}{{end}}</p>
{{if .Known}}<div class="known"><b>Known interaction</b> ({{.KnownSeverity}}): {{.KnownMechanism}} — <i>{{.KnownSource}}</i></div>{{end}}
<div class="row">
  <div><h3>Contextual glyph (zoom)</h3><img src="/glyph/{{.Rank}}?zoom=1" width="420"></div>
  <div><h3>MCAC bar-chart</h3><img src="/barchart/{{.Rank}}" width="420"></div>
</div>
<h3>Context (sub-rules)</h3>
<table><tr><th>Drugs</th><th>Confidence</th><th>Lift</th><th>Support</th></tr>
{{range .Context}}<tr><td>{{.Drugs}}</td><td>{{printf "%.3f" .Confidence}}</td><td>{{printf "%.2f" .Lift}}</td><td>{{.Support}}</td></tr>{{end}}
</table>
<h3>Demographics of supporting reports</h3>
<p>Sex: {{.SexBreakdown}} (χ²={{printf "%.1f" .SexChi}}) · Age: {{.AgeBreakdown}} (χ²={{printf "%.1f" .AgeChi}})
{{if .Enriched}}<br>Enriched strata: {{.Enriched}}{{end}}</p>
<h3>Supporting reports ({{len .ReportIDs}})</h3>
<p>{{range .ReportIDs}}<a href="/report/{{.}}">{{.}}</a> {{end}}</p>
</body></html>`))

type signalData struct {
	Rank           int
	Score          float64
	DrugList       string
	ReactionList   string
	Support        int
	Confidence     float64
	Lift           float64
	Known          bool
	KnownSeverity  string
	KnownMechanism string
	KnownSource    string
	Context        []contextRow
	ReportIDs      []string
	ReportList     string
	SOCList        string
	SexBreakdown   string
	AgeBreakdown   string
	SexChi         float64
	AgeChi         float64
	Enriched       string
}

type contextRow struct {
	Drugs      string
	Confidence float64
	Lift       float64
	Support    int
}

// renderDist formats a distribution as "F:12 M:3".
func renderDist(d strata.Distribution) string {
	parts := make([]string, 0, len(d))
	for _, k := range d.Keys() {
		parts = append(parts, fmt.Sprintf("%s:%d", k, d[k]))
	}
	return strings.Join(parts, " ")
}

func (s *server) signalByRank(path, prefix string) (*core.Signal, bool) {
	rankStr := strings.TrimPrefix(path, prefix)
	rankStr = strings.TrimSuffix(rankStr, "/")
	n, err := strconv.Atoi(rankStr)
	if err != nil || n < 1 || n > len(s.analysis.Signals) {
		return nil, false
	}
	return &s.analysis.Signals[n-1], true
}

func (s *server) handleSignal(w http.ResponseWriter, r *http.Request) {
	sig, ok := s.signalByRank(r.URL.Path, "/signal/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	dict := s.analysis.Dict()
	d := signalData{
		Rank:         sig.Rank,
		Score:        sig.Score,
		DrugList:     strings.Join(sig.Drugs, " + "),
		ReactionList: strings.Join(sig.Reactions, ", "),
		Support:      sig.Support,
		Confidence:   sig.Confidence,
		Lift:         sig.Lift,
		ReportIDs:    sig.ReportIDs,
		ReportList:   strings.Join(sig.ReportIDs, ", "),
	}
	socs := make([]string, len(sig.SOCs))
	for i, soc := range sig.SOCs {
		socs[i] = string(soc)
	}
	d.SOCList = strings.Join(socs, "; ")
	demo := s.analysis.Demographics(sig)
	d.SexBreakdown = renderDist(demo.SexSignal)
	d.AgeBreakdown = renderDist(demo.AgeSignal)
	d.SexChi = demo.SexChiSquare
	d.AgeChi = demo.AgeChiSquare
	d.Enriched = strings.Join(demo.Enriched(0.15), ", ")
	if sig.Known != nil {
		d.Known = true
		d.KnownSeverity = sig.Known.Severity.String()
		d.KnownMechanism = sig.Known.Mechanism
		d.KnownSource = sig.Known.Source
	}
	for _, cr := range sig.Cluster.ContextRules() {
		d.Context = append(d.Context, contextRow{
			Drugs:      strings.Join(dict.SortedNames(cr.Antecedent), " + "),
			Confidence: cr.Confidence,
			Lift:       cr.Lift,
			Support:    cr.Support,
		})
	}
	s.renderHTML(w, r, "signal", signalTmpl, d)
}

func (s *server) handleGlyph(w http.ResponseWriter, r *http.Request) {
	sig, ok := s.signalByRank(r.URL.Path, "/glyph/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	_, span := obs.StartSpan(r.Context(), "render:glyph")
	defer span.End()
	span.SetInt("rank", int64(sig.Rank))
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Header().Set("Cache-Control", svgCacheControl)
	if r.URL.Query().Get("zoom") != "" {
		span.SetAttr("zoom", "true")
		fmt.Fprint(w, glyph.Zoom(sig.Cluster, s.analysis.Dict()))
		return
	}
	fmt.Fprint(w, glyph.Contextual(sig.Cluster, glyph.Options{Dict: s.analysis.Dict()}))
}

var reportTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><title>Report {{.PrimaryID}}</title>
<style>body{font-family:sans-serif;margin:2em;background:#fafafa}
td,th{border:1px solid #ccc;padding:4px 8px;font-size:13px}table{border-collapse:collapse}</style></head><body>
<p><a href="/">&larr; all signals</a></p>
<h1>Report {{.PrimaryID}}</h1>
<table>
<tr><th>Case</th><td>{{.CaseID}}</td></tr>
<tr><th>Type</th><td>{{.ReportCode}}</td></tr>
<tr><th>Age</th><td>{{.Age}} {{.AgeCode}}</td></tr>
<tr><th>Sex</th><td>{{.Sex}}</td></tr>
<tr><th>Country</th><td>{{.Country}}</td></tr>
<tr><th>Event date</th><td>{{.EventDate}}</td></tr>
<tr><th>Drugs</th><td>{{.DrugList}}</td></tr>
<tr><th>Reactions</th><td>{{.ReacList}}</td></tr>
<tr><th>Outcomes</th><td>{{.OutcomeList}}</td></tr>
</table></body></html>`))

// handleReport shows one raw report — the drill-down the paper's
// Section 4.1 requires ("analyze the original data reports submitted
// by patients that supports the corresponding drug-drug interactions").
func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/report/"), "/")
	rep, ok := s.analysis.Report(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	data := struct {
		PrimaryID, CaseID, ReportCode, Age, AgeCode, Sex, Country, EventDate string
		DrugList, ReacList, OutcomeList                                      string
	}{
		PrimaryID: rep.PrimaryID, CaseID: rep.CaseID, ReportCode: rep.ReportCode,
		Age: rep.Age, AgeCode: rep.AgeCode, Sex: rep.Sex, Country: rep.Country,
		EventDate:   rep.EventDate,
		DrugList:    strings.Join(rep.Drugs, ", "),
		ReacList:    strings.Join(rep.Reactions, ", "),
		OutcomeList: strings.Join(rep.Outcomes, ", "),
	}
	s.renderHTML(w, r, "report", reportTmpl, data)
}

// handleAPISignals serves the ranked signals as JSON for programmatic
// clients.
func (s *server) handleAPISignals(w http.ResponseWriter, r *http.Request) {
	type apiSignal struct {
		Rank         int      `json:"rank"`
		Score        float64  `json:"score"`
		Drugs        []string `json:"drugs"`
		Reactions    []string `json:"reactions"`
		Support      int      `json:"support"`
		Confidence   float64  `json:"confidence"`
		Lift         float64  `json:"lift"`
		Known        bool     `json:"known"`
		SeriousShare float64  `json:"serious_share"`
		ReportIDs    []string `json:"report_ids"`
	}
	_, span := obs.StartSpan(r.Context(), "render:api_signals")
	defer span.End()
	span.SetInt("signals", int64(len(s.analysis.Signals)))
	out := make([]apiSignal, len(s.analysis.Signals))
	for i, sig := range s.analysis.Signals {
		out[i] = apiSignal{
			Rank: sig.Rank, Score: sig.Score, Drugs: sig.Drugs, Reactions: sig.Reactions,
			Support: sig.Support, Confidence: sig.Confidence, Lift: sig.Lift,
			Known: sig.Known != nil, SeriousShare: sig.SeriousShare, ReportIDs: sig.ReportIDs,
		}
	}
	// Encode before writing: a marshal failure must yield a real 500,
	// not a truncated 200 body.
	body, err := json.Marshal(out)
	if err != nil {
		s.log().Error("api signals encode", "err", err)
		http.Error(w, "internal encode error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		s.log().Warn("api signals write", "err", err)
	}
}

// handleNetworkDOT exports the drug-interaction graph as Graphviz DOT.
func (s *server) handleNetworkDOT(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	fmt.Fprint(w, network.Build(s.analysis.Signals).DOT())
}

// handleNetworkJSON exports the graph as d3-style nodes/links JSON.
func (s *server) handleNetworkJSON(w http.ResponseWriter, r *http.Request) {
	data, err := network.Build(s.analysis.Signals).JSON()
	if err != nil {
		s.log().Error("network json", "err", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(data); err != nil {
		s.log().Warn("network json write", "err", err)
	}
}

func (s *server) handleBarChart(w http.ResponseWriter, r *http.Request) {
	sig, ok := s.signalByRank(r.URL.Path, "/barchart/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	_, span := obs.StartSpan(r.Context(), "render:barchart")
	defer span.End()
	span.SetInt("rank", int64(sig.Rank))
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Header().Set("Cache-Control", svgCacheControl)
	fmt.Fprint(w, glyph.BarChart(sig.Cluster, glyph.Options{Size: 420, Dict: s.analysis.Dict()}))
}
