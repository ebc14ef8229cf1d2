package store

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/obs"
	"maras/internal/obs/prof"
	"maras/internal/obs/wide"
	"maras/internal/trend"
)

// Span names recorded on the request trace (see obs.StartSpan): a
// registry load, the disk decode inside a cold load, a directory
// rescan, and the cross-quarter trend assembly.
const (
	SpanLoad     = "store_load"
	SpanDecode   = "snapshot_decode"
	SpanRescan   = "store_rescan"
	SpanAssemble = "trend_assemble"
)

// RegistryOptions configures a snapshot registry.
type RegistryOptions struct {
	// MaxOpen bounds how many quarters are held rehydrated in memory
	// at once (LRU eviction beyond it). 0 means DefaultMaxOpen.
	MaxOpen int
	// Metrics, when non-nil, receives load latency, open-quarter
	// gauge, and cache hit/miss/eviction counts.
	Metrics *obs.StoreMetrics
	// Tracer, when non-nil, records a "snapshot_load" stage per disk
	// load — the counterpart of the mining stages, so a serving
	// process can prove a warm quarter involved zero mining.
	Tracer *obs.Tracer
	// Auditor, when non-nil, supplies the thresholds for quality and
	// drift evaluation (QualityContext/DriftContext) and receives
	// their findings as audit events. A nil auditor evaluates with
	// defaults and records nothing.
	Auditor *audit.Auditor
	// Resilience, when non-nil, puts snapshot loads behind per-quarter
	// circuit breakers with transient-failure retry, and enables
	// LoadResilient's stale serving (see ResilienceOptions). Nil keeps
	// the registry's original fail-on-first-error behavior.
	Resilience *ResilienceOptions
	// Wide, when non-nil, receives one wide event per cold load (disk
	// decode) — kind store_load, quarter, duration, bytes, outcome —
	// linked to the paying request's trace when one is active. LRU hits
	// emit nothing; they are visible on the request event's cache dim.
	Wide *wide.Ring
	// OnLoad, when non-nil, is called after every successful cold load
	// (disk decode) with the freshly rehydrated analysis — once per
	// decode, not per LRU hit, so re-serving a resident quarter costs
	// nothing extra. It runs on the loading goroutine, outside the
	// registry lock, with the load's context (so callbacks can attach
	// spans to the request trace that paid for the decode). Consumers
	// reacting to quarter content changes (the watch evaluator) hang
	// off this hook.
	OnLoad func(ctx context.Context, label string, a *core.Analysis)
}

// DefaultMaxOpen is the open-quarter LRU capacity when
// RegistryOptions.MaxOpen is zero.
const DefaultMaxOpen = 4

// StageSnapshotLoad is the tracer stage name recorded per disk load.
const StageSnapshotLoad = "snapshot_load"

// Registry manages a directory of per-quarter snapshot files
// (2014Q1.maras, 2014Q2.maras, ...): discovery, lazy loading with an
// LRU of open quarters, atomic writes, and cross-quarter timeline
// queries. It is safe for concurrent use.
type Registry struct {
	dir     string
	maxOpen int
	metrics *obs.StoreMetrics
	tracer  *obs.Tracer
	onLoad  func(context.Context, string, *core.Analysis)
	auditor *audit.Auditor
	wide    *wide.Ring

	mu       sync.Mutex
	quarters []string          // sorted labels discovered on disk
	open     map[string]*entry // label -> resident entry
	lruOrder []string          // least-recent first

	// quality caches each quarter's metric-only quality report. The
	// reports are tiny, so unlike the rehydrated analyses they survive
	// LRU eviction — trailing-quarter evaluation never forces old
	// quarters back into memory twice. Guarded by qmu (the reports are
	// published from inside a load, outside r.mu).
	qmu     sync.Mutex
	quality map[string]*audit.QualityReport

	// trendCached memoizes the cross-quarter trend assembly keyed by
	// the quarter list it was built from; Save and Refresh invalidate
	// it. Guarded by trendMu, held across the (expensive) assembly so
	// concurrent drift/timeline requests share one computation.
	trendMu     sync.Mutex
	trendKey    string
	trendCached *trend.Analysis

	// res is the resilience machinery (breakers, stale cache,
	// quarantine); nil unless RegistryOptions.Resilience was set.
	res *resState

	// peerFetch is the replica read-failover hook (SetPeerFetch);
	// guarded by mu, nil when this registry has no replica peers.
	peerFetch func(context.Context, string) (*core.Analysis, error)
}

// entry is one resident (or loading) quarter. The sync.Once decouples
// the disk read from the registry lock: concurrent loads of the same
// quarter share one read, while loads of different quarters proceed
// in parallel.
type entry struct {
	once sync.Once
	a    *core.Analysis
	q    *audit.QualityReport
	err  error
}

// OpenRegistry scans dir for quarter snapshots and returns a registry
// over them. The directory may be empty (quarters can be saved into
// it later); a missing directory is an error.
func OpenRegistry(dir string, opts RegistryOptions) (*Registry, error) {
	r := &Registry{
		dir:     dir,
		maxOpen: opts.MaxOpen,
		metrics: opts.Metrics,
		tracer:  opts.Tracer,
		onLoad:  opts.OnLoad,
		auditor: opts.Auditor,
		wide:    opts.Wide,
		open:    map[string]*entry{},
		quality: map[string]*audit.QualityReport{},
	}
	if r.maxOpen <= 0 {
		r.maxOpen = DefaultMaxOpen
	}
	if opts.Resilience != nil {
		r.initResilience(*opts.Resilience)
	}
	r.sweepOrphans()
	if err := r.Refresh(); err != nil {
		return nil, err
	}
	return r, nil
}

// Refresh rescans the directory for snapshot files — cheap, so a
// serving process can pick up quarters dropped in by a miner without
// restarting.
func (r *Registry) Refresh() error { return r.RefreshContext(context.Background()) }

// RefreshContext is Refresh with a request context: when the context
// carries an active trace span, the rescan records a child span so a
// request that paid for a directory walk shows it.
func (r *Registry) RefreshContext(ctx context.Context) error {
	_, span := obs.StartSpan(ctx, SpanRescan)
	defer span.End()
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		span.SetAttr("error", err.Error())
		return fmt.Errorf("store: %w", err)
	}
	var labels []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, Ext) {
			continue
		}
		labels = append(labels, strings.TrimSuffix(name, Ext))
	}
	sort.Strings(labels)
	span.SetInt("quarters", int64(len(labels)))
	r.mu.Lock()
	changed := !slicesEqual(r.quarters, labels)
	r.quarters = labels
	r.mu.Unlock()
	if changed {
		// The quarter set moved under us: the cached trend analysis is
		// stale, and quality reports of removed quarters are orphans.
		r.invalidateTrend()
		onDisk := make(map[string]bool, len(labels))
		for _, l := range labels {
			onDisk[l] = true
		}
		r.qmu.Lock()
		for l := range r.quality {
			if !onDisk[l] {
				delete(r.quality, l)
			}
		}
		r.qmu.Unlock()
	}
	return nil
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Dir returns the directory the registry serves from.
func (r *Registry) Dir() string { return r.dir }

// Quarters returns the sorted labels of every snapshot on disk.
func (r *Registry) Quarters() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string{}, r.quarters...)
}

// Latest returns the most recent quarter label (labels sort
// chronologically: "2014Q1" < "2014Q2" < "2015Q1"), or "" when the
// store is empty.
func (r *Registry) Latest() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.quarters) == 0 {
		return ""
	}
	return r.quarters[len(r.quarters)-1]
}

// Has reports whether label has a snapshot on disk.
func (r *Registry) Has(label string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, q := range r.quarters {
		if q == label {
			return true
		}
	}
	return false
}

// Path returns the snapshot file path for label.
func (r *Registry) Path(label string) string {
	return filepath.Join(r.dir, label+Ext)
}

// Load returns the rehydrated analysis for label, reading it from
// disk on first touch and serving every later request from the
// open-quarter LRU. Serving a warm quarter does zero disk I/O and
// zero mining.
func (r *Registry) Load(label string) (*core.Analysis, error) {
	return r.LoadContext(context.Background(), label)
}

// LoadContext is Load with a request context. When the context
// carries an active trace span, the load records a "store_load" child
// span (attr cache=lru_hit|lru_miss) and — for the caller that
// actually performs the disk read — a nested "snapshot_decode" span,
// so a request's trace distinguishes a warm LRU hit from a cold
// decode.
func (r *Registry) LoadContext(ctx context.Context, label string) (*core.Analysis, error) {
	if !r.Has(label) {
		return nil, fmt.Errorf("store: quarter %q not in %s", label, r.dir)
	}
	ctx, span := obs.StartSpan(ctx, SpanLoad)
	defer span.End()
	span.SetAttr("quarter", label)

	r.mu.Lock()
	e, resident := r.open[label]
	if !resident {
		e = &entry{}
		r.open[label] = e
	}
	r.touchLocked(label)
	evicted := r.evictLocked()
	r.mu.Unlock()
	if m := r.metrics; m != nil {
		m.Evictions.Add(int64(evicted))
	}

	m := r.metrics
	if resident {
		span.SetAttr("cache", "lru_hit")
		if m != nil {
			m.Hits.Inc()
		}
	} else {
		span.SetAttr("cache", "lru_miss")
		if m != nil {
			m.Misses.Inc()
		}
	}

	e.once.Do(func() {
		// The decode runs under op=store_load so continuous-profiling
		// captures attribute cold-load CPU (CRC sweep + snapshot
		// decode) separately from request handling.
		prof.Do(ctx, func(ctx context.Context) {
			st := r.tracer.StartStage(StageSnapshotLoad)
			_, dspan := obs.StartSpan(ctx, SpanDecode)
			defer dspan.End()
			start := time.Now()
			path := r.Path(label)
			snap, err := r.openResilient(ctx, label, path, dspan)
			if err != nil {
				e.err = err
				dspan.SetAttr("error", err.Error())
				st.End()
				r.wide.Emit(wide.Event{
					Kind: wide.KindStoreLoad, Quarter: label, Status: 500,
					Duration: time.Since(start), Trace: obs.ActiveSpan(ctx).TraceID(),
				})
				return
			}
			e.a = snap.Analysis
			e.q = snap.Quality
			if snap.Quality != nil {
				r.qmu.Lock()
				r.quality[label] = snap.Quality
				r.qmu.Unlock()
			}
			if m != nil {
				m.LoadSeconds.Observe(time.Since(start).Seconds())
			}
			loadBytes := snap.Size
			if m != nil {
				m.BytesRead.Add(loadBytes)
			}
			dspan.SetInt("bytes", loadBytes)
			dspan.SetInt("signals", int64(len(snap.Analysis.Signals)))
			st.Count("signals", int64(len(snap.Analysis.Signals)))
			st.Count("reports", int64(snap.Analysis.Stats.Reports))
			st.End()
			r.wide.Emit(wide.Event{
				Kind: wide.KindStoreLoad, Quarter: label, Status: 200,
				Duration: time.Since(start), Bytes: loadBytes,
				Cache: "lru_miss", Trace: obs.ActiveSpan(ctx).TraceID(),
			})
			if r.onLoad != nil {
				r.onLoad(ctx, label, snap.Analysis)
			}
		}, prof.LabelOp, "store_load", "quarter", label)
	})
	if e.err != nil {
		// Drop the failed entry so a repaired file can be retried.
		r.dropLocked(label, e)
		return nil, e.err
	}
	return e.a, nil
}

// Save writes label's analysis into the store atomically
// (write-then-rename) and makes it immediately loadable. Any resident
// copy of the same label is invalidated so the next Load sees the new
// bytes.
func (r *Registry) Save(label string, a *core.Analysis) error {
	if err := WriteFile(r.Path(label), label, a); err != nil {
		return err
	}
	r.noteWritten(label)
	return nil
}

// InstallBytes atomically installs raw snapshot bytes — fetched from
// a replica peer — under label, verifying the envelope first so
// corrupt peer bytes never reach disk. The write shares WriteFile's
// temp-file pattern, so a crash mid-install leaves only an orphan the
// next OpenRegistry sweep reclaims; on success the label is
// immediately loadable, exactly as after Save.
func (r *Registry) InstallBytes(label string, data []byte) error {
	if err := CheckBytes(data); err != nil {
		return fmt.Errorf("store: installing %q: %w", label, err)
	}
	err := writeFileAtomic(r.Path(label), func(w io.Writer) error {
		_, werr := w.Write(data)
		return werr
	})
	if err != nil {
		return err
	}
	r.noteWritten(label)
	return nil
}

// noteWritten records that label's bytes on disk just changed (Save or
// InstallBytes): cached derivations of the old bytes — the quarter's
// quality report, any resident analysis, the cross-quarter trend
// assembly — are dropped, and the label becomes discoverable without
// waiting for a rescan.
func (r *Registry) noteWritten(label string) {
	r.qmu.Lock()
	delete(r.quality, label)
	r.qmu.Unlock()
	r.invalidateTrend()
	r.mu.Lock()
	if e := r.open[label]; e != nil {
		delete(r.open, label)
		r.removeLRULocked(label)
	}
	found := false
	for _, q := range r.quarters {
		if q == label {
			found = true
			break
		}
	}
	if !found {
		r.quarters = append(r.quarters, label)
		sort.Strings(r.quarters)
	}
	n := int64(len(r.open))
	r.mu.Unlock()
	if r.metrics != nil {
		r.metrics.OpenQuarters.Set(n)
	}
}

// StartRescan refreshes the directory listing every interval until ctx
// ends. The first rescan fires after a uniformly random delay in
// [0, interval) and each later tick re-arms at interval ±25%, so a
// replica fleet restarted together spreads its first rescans (and the
// sync rounds they feed) instead of thundering-herding its peers in
// lockstep. A non-positive interval disables the loop.
func (r *Registry) StartRescan(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		return
	}
	go func() {
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		t := time.NewTimer(time.Duration(rng.Int63n(int64(interval))))
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				// A failed rescan (directory briefly unreadable) is
				// transient; the next tick retries.
				_ = r.Refresh()
				spread := float64(interval) * 0.25
				t.Reset(time.Duration(float64(interval) - spread + 2*spread*rng.Float64()))
			}
		}
	}()
}

// Timeline replays the trajectory of one drug combination across
// every quarter in the store — the surveillance question ("when did
// this signal emerge, and how has it moved?") answered entirely from
// disk. The key is the canonical drug-combination key ("A+B", as
// knowledge.DrugKey builds). It returns the quarter labels, the
// trajectory (nil when the combination never signals), and any load
// error.
func (r *Registry) Timeline(key string) ([]string, *trend.Trajectory, error) {
	return r.TimelineContext(context.Background(), key)
}

// TimelineContext is Timeline with a request context so the per-
// quarter loads behind a timeline query appear as spans on the
// request trace.
func (r *Registry) TimelineContext(ctx context.Context, key string) ([]string, *trend.Trajectory, error) {
	ta, err := r.TrendAnalysisContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	return ta.Quarters, ta.Find(key), nil
}

// TrendAnalysis assembles the full cross-quarter trend analysis from
// the stored snapshots, loading each quarter through the LRU.
func (r *Registry) TrendAnalysis() (*trend.Analysis, error) {
	return r.TrendAnalysisContext(context.Background())
}

// TrendAnalysisContext is TrendAnalysis with a request context: the
// assembly records a "trend_assemble" span whose children are the
// per-quarter store_load spans (hit or decode), so a slow timeline
// request shows exactly which quarter paid for disk.
//
// The assembled analysis is cached against the quarter list it was
// built from (invalidated by Save and by a Refresh that changes the
// set), so repeated timeline and drift queries over an unchanged store
// assemble once. The lock is held across the assembly: concurrent
// callers share the computation instead of duplicating it.
func (r *Registry) TrendAnalysisContext(ctx context.Context) (*trend.Analysis, error) {
	labels := r.Quarters()
	if len(labels) == 0 {
		return nil, fmt.Errorf("store: no quarters in %s", r.dir)
	}
	key := strings.Join(labels, "|")
	r.trendMu.Lock()
	defer r.trendMu.Unlock()
	if r.trendCached != nil && r.trendKey == key {
		return r.trendCached, nil
	}
	ctx, span := obs.StartSpan(ctx, SpanAssemble)
	defer span.End()
	span.SetInt("quarters", int64(len(labels)))
	results := make([]*core.Analysis, len(labels))
	for i, l := range labels {
		a, err := r.LoadContext(ctx, l)
		if err != nil {
			return nil, err
		}
		results[i] = a
	}
	ta := trend.Assemble(labels, results)
	r.trendKey, r.trendCached = key, ta
	return ta, nil
}

// invalidateTrend drops the cached trend assembly.
func (r *Registry) invalidateTrend() {
	r.trendMu.Lock()
	r.trendKey, r.trendCached = "", nil
	r.trendMu.Unlock()
}

// OpenCount returns how many quarters are currently resident.
func (r *Registry) OpenCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.open)
}

// touchLocked moves label to the most-recent end of the LRU order.
func (r *Registry) touchLocked(label string) {
	r.removeLRULocked(label)
	r.lruOrder = append(r.lruOrder, label)
}

func (r *Registry) removeLRULocked(label string) {
	for i, l := range r.lruOrder {
		if l == label {
			r.lruOrder = append(r.lruOrder[:i], r.lruOrder[i+1:]...)
			return
		}
	}
}

// evictLocked drops least-recent quarters until the LRU fits, and
// returns how many it evicted. The gauge is updated here so it is
// consistent under the lock.
func (r *Registry) evictLocked() int {
	evicted := 0
	for len(r.open) > r.maxOpen && len(r.lruOrder) > 0 {
		victim := r.lruOrder[0]
		r.lruOrder = r.lruOrder[1:]
		if _, ok := r.open[victim]; ok {
			delete(r.open, victim)
			evicted++
		}
	}
	if r.metrics != nil {
		r.metrics.OpenQuarters.Set(int64(len(r.open)))
	}
	return evicted
}

// dropLocked removes a failed entry (only if it is still the resident
// one) so later loads retry the file.
func (r *Registry) dropLocked(label string, failed *entry) {
	r.mu.Lock()
	if r.open[label] == failed {
		delete(r.open, label)
		r.removeLRULocked(label)
	}
	n := int64(len(r.open))
	r.mu.Unlock()
	if r.metrics != nil {
		r.metrics.OpenQuarters.Set(n)
	}
}
