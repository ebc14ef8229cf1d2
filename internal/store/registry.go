package store

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/obs"
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
	// MaxOpen bounds the hot window: how many of the most recently
	// loaded quarters are served as LRU hits, with no file check. 0
	// means DefaultMaxOpen. Without resilience options it also bounds
	// the decoded copies held; with them the copies are bounded by
	// ResilienceOptions.StaleCap and the window is clamped to it.
	MaxOpen int
	// Metrics, when non-nil, receives load latency, open-quarter
	// gauge, and cache hit/miss/eviction counts.
	Metrics *obs.StoreMetrics
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
	// OnLoad, when non-nil, is called after a successful cold load
	// (disk decode or promotion) with the rehydrated analysis, once per
	// distinct file identity: on the quarter's first load, and on the
	// first load after its bytes changed or the registry forgot them
	// (Save, InstallBytes, a rewrite a Refresh or load notices, a
	// quarantine). A re-decode or promotion of the bytes last loaded
	// calls it only when Dirty asks; an LRU hit never does. A consumer
	// thus sees each content once, however often the quarter is
	// evicted and brought back. It runs on the loading goroutine,
	// outside the registry lock, with the decode's context (so
	// callbacks attach spans under the snapshot_decode span of the
	// request trace that paid for the load).
	// Consumers reacting to quarter content changes (the watch
	// evaluator) hang off this hook.
	OnLoad func(ctx context.Context, label string, a *core.Analysis)
	// Dirty, when non-nil, is asked on every cold load of bytes the
	// registry has already loaded (a re-decode or a promotion; see
	// Registry.LoadContext) whether OnLoad must see label again
	// although its bytes are unchanged. When it returns true the load
	// calls OnLoad as a load of new bytes would. The watch evaluator answers true for
	// a quarter a drift event has marked for a full re-route.
	Dirty func(label string) bool
}

// DefaultMaxOpen is the hot-window size when RegistryOptions.MaxOpen
// is zero.
const DefaultMaxOpen = 4

// Registry manages a directory of per-quarter snapshot files
// (2014Q1.maras, 2014Q2.maras, ...): discovery, lazy loading into a
// bounded table of decoded quarters, atomic writes, and cross-quarter
// timeline queries. It is safe for concurrent use.
type Registry struct {
	dir     string
	metrics *obs.StoreMetrics
	onLoad  func(context.Context, string, *core.Analysis)
	dirty   func(string) bool
	auditor *audit.Auditor
	wide    *wide.Ring

	// maxOpen is the hot window and maxCopies the bound on decoded
	// copies the table holds (see fitLocked); maxOpen <= maxCopies.
	maxOpen, maxCopies int

	mu       sync.Mutex
	quarters []string        // sorted labels discovered on disk
	rows     map[string]*row // the quarter table; a row is never removed
	recency  []*row          // every row, least recently loaded first

	// degradedRows counts the rows with the degraded mark. It changes
	// under mu and is read without it, by Degraded on every request.
	degradedRows atomic.Int32

	// trendCached memoizes the cross-quarter trend assembly with the
	// generation it was built at. Everything that changes the quarter
	// list or a quarter's bytes calls invalidateTrend, which bumps
	// trendGen, so invalidation never waits for an assembly in
	// progress. The cache is guarded by trendMu, held across the
	// (expensive) assembly so concurrent drift/timeline requests share
	// one computation; trendCached is also read without it by
	// IsLatestTrend.
	trendGen    atomic.Uint64
	trendMu     sync.Mutex
	trendBuilt  uint64
	trendCached atomic.Pointer[trend.Analysis]

	// res is the resilience machinery (breakers, quarantine); nil
	// unless RegistryOptions.Resilience was set.
	res *resState

	// peerFetch is the replica read-failover hook (SetPeerFetch);
	// guarded by mu, nil when this registry has no replica peers.
	peerFetch func(context.Context, string) (*core.Analysis, error)
}

// row is one quarter's line in the registry's table. Every field is
// guarded by Registry.mu.
type row struct {
	// load is the quarter's current load, in flight or done. A row
	// with one is hot: later loads share it as LRU hits. Leaving the
	// hot window, a failure or forget drops it.
	load *entry
	// a is the retained decoded copy, nil once the row falls past the
	// table's bound. peer marks a copy fetched from a replica peer: it
	// is served as OriginPeer and never promoted.
	a    *core.Analysis
	peer bool
	// q and id are the quality report and the file identity of the
	// quarter's last local load, and seen says one has finished since
	// the row was made or last forgotten. They outlive the copy, so a
	// re-decode of unchanged bytes still skips OnLoad.
	q    *audit.QualityReport
	id   fileID
	seen bool
	// degraded marks a quarter served from a fallback tier, until a
	// fresh load succeeds.
	degraded bool
}

// entry is one load of a quarter. The sync.Once decouples the disk
// read from the registry lock: concurrent loads of the same quarter
// share one read, while loads of different quarters proceed in
// parallel.
type entry struct {
	once sync.Once
	a    *core.Analysis
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
		onLoad:  opts.OnLoad,
		dirty:   opts.Dirty,
		auditor: opts.Auditor,
		wide:    opts.Wide,
		rows:    map[string]*row{},
	}
	if r.maxOpen <= 0 {
		r.maxOpen = DefaultMaxOpen
	}
	r.maxCopies = r.maxOpen
	if opts.Resilience != nil {
		r.initResilience(*opts.Resilience)
		r.maxCopies = r.res.opts.StaleCap
		r.maxOpen = min(r.maxOpen, r.maxCopies)
	}
	r.sweepOrphans()
	if err := r.Refresh(); err != nil {
		return nil, err
	}
	return r, nil
}

// Refresh rescans the directory for snapshot files — cheap, so a
// serving process can pick up quarters dropped in by a miner without
// restarting. It also stats every quarter loaded so far: one whose
// file was replaced or rewritten since (maras-mine -snapshot-out over
// an existing label, a WriteFile into the directory) is forgotten, so
// its resident copy, quality report and the trend assembly are rebuilt
// from the new bytes.
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
	changed := !slices.Equal(r.quarters, labels)
	r.quarters = labels
	r.mu.Unlock()
	if changed {
		// The quarter set moved under us: the cached trend analysis is
		// stale. (What was loaded from a removed quarter is forgotten
		// below, its quality report included.)
		r.invalidateTrend()
	}
	if n := r.forgetRewritten(); n > 0 {
		span.SetInt("rewritten", int64(n))
	}
	return nil
}

// forgetRewritten stats every quarter the registry has loaded and
// forgets each one whose file no longer matches the identity it was
// loaded with (or is gone), so the next load decodes what is on disk
// now. It returns how many it forgot. It stats the path instead of
// using the directory listing's lstat, so a symlinked snapshot is
// compared by the file it points to, as the load's stat of the open
// file was.
func (r *Registry) forgetRewritten() int {
	loaded := map[string]fileID{}
	r.mu.Lock()
	for l, w := range r.rows {
		if w.seen {
			loaded[l] = w.id
		}
	}
	r.mu.Unlock()
	n := 0
	for l, id := range loaded {
		if fi, err := os.Stat(r.Path(l)); err == nil && id.matches(fi) {
			continue
		}
		r.forget(l)
		n++
	}
	return n
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
	return slices.Contains(r.quarters, label)
}

// Path returns the snapshot file path for label.
func (r *Registry) Path(label string) string {
	return filepath.Join(r.dir, label+Ext)
}

// Load returns the rehydrated analysis for label, reading it from
// disk on first touch and serving later requests from the registry's
// table while the quarter stays hot. Serving a warm quarter does zero
// disk I/O and zero mining.
func (r *Registry) Load(label string) (*core.Analysis, error) {
	return r.LoadContext(context.Background(), label)
}

// LoadContext is Load with a request context. When the context
// carries an active trace span, the load records a "store_load" child
// span (attr cache=lru_hit|lru_miss) and — for the caller that
// actually performs the disk read — a nested "snapshot_decode" span,
// so a request's trace distinguishes a warm LRU hit from a cold
// decode.
//
// A load of a hot row (see fitLocked) is an LRU hit. Any other load is
// a miss: it makes the row hot, and one cold load, shared by concurrent
// misses, fills it. A miss whose file is unchanged since the row's
// retained copy was decoded promotes that copy (see openResilient). A
// promotion is not a decode: it observes neither LoadSeconds nor
// BytesRead; it counts in Promotions and marks the decode span
// promoted=true.
//
// Decode and promotion share one OnLoad rule: OnLoad runs when the
// file's identity differs from the one last loaded for the quarter (or
// none is recorded: a first load, or one after forget), or when
// RegistryOptions.Dirty says the consumer wants the unchanged analysis
// again. A quarter whose copy fell past the table's bound therefore
// re-decodes without re-running its consumers.
//
// Every loader fills the same table (serving, the audit sweep, trend
// assembly), and a successful load clears the quarter's degraded mark.
func (r *Registry) LoadContext(ctx context.Context, label string) (*core.Analysis, error) {
	r.mu.Lock()
	if !slices.Contains(r.quarters, label) {
		r.mu.Unlock()
		return nil, fmt.Errorf("store: quarter %q not in %s", label, r.dir)
	}
	w := r.useLocked(label)
	e := w.load
	hit := e != nil
	if !hit {
		e = &entry{}
		w.load = e
		r.fitLocked()
	}
	recovering := w.degraded
	r.mu.Unlock()

	ctx, span := obs.StartSpan(ctx, SpanLoad)
	defer span.End()
	span.SetAttr("quarter", label)
	m := r.metrics
	if hit {
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
		// The decode is one obs.Do unit: a snapshot_decode span under
		// the load's, run under op=store_load so continuous-profiling
		// captures attribute cold-load CPU (CRC sweep + snapshot
		// decode) separately from request handling.
		obs.Do(ctx, nil, SpanDecode, func(dctx context.Context, st *obs.Stage) {
			dspan := obs.ActiveSpan(dctx)
			start := time.Now()
			cl, err := r.openResilient(dctx, label, r.Path(label), dspan)
			if err != nil {
				e.err = err
				dspan.SetAttr("error", err.Error())
				r.wide.Emit(wide.Event{
					Kind: wide.KindStoreLoad, Quarter: label, Status: 500,
					Duration: time.Since(start), Trace: dspan.TraceID(),
				})
				return
			}
			e.a = cl.a
			r.mu.Lock()
			seen, known := w.seen, w.seen && w.id.same(cl.id)
			w.a, w.peer, w.q, w.id, w.seen = cl.a, false, cl.q, cl.id, true
			r.fitLocked()
			r.mu.Unlock()
			if seen && !known {
				// The file changed since the quarter was last loaded, so
				// a trend assembled from the old bytes is stale.
				r.invalidateTrend()
			}
			st.Count("signals", int64(len(cl.a.Signals)))
			if cl.promoted {
				if m != nil && m.Promotions != nil {
					m.Promotions.Inc()
				}
				dspan.SetAttr("promoted", "true")
				r.wide.Emit(wide.Event{
					Kind: wide.KindStoreLoad, Quarter: label, Status: 200,
					Duration: time.Since(start), Cache: "promoted",
					Trace: dspan.TraceID(),
				})
			} else {
				if m != nil {
					m.LoadSeconds.Observe(time.Since(start).Seconds())
					m.BytesRead.Add(cl.size)
				}
				st.Count("bytes", cl.size)
				r.wide.Emit(wide.Event{
					Kind: wide.KindStoreLoad, Quarter: label, Status: 200,
					Duration: time.Since(start), Bytes: cl.size,
					Cache: "lru_miss", Trace: dspan.TraceID(),
				})
			}
			if r.onLoad != nil && (!known || r.dirty != nil && r.dirty(label)) {
				r.onLoad(dctx, label, cl.a)
			}
		}, obs.LabelOp, "store_load", "quarter", label)
	})
	if e.err != nil {
		// Drop the failed load so a repaired file can be retried.
		r.mu.Lock()
		if w.load == e {
			w.load = nil
			r.fitLocked()
		}
		r.mu.Unlock()
		return nil, e.err
	}
	if recovering {
		r.recovered(label, w)
	}
	return e.a, nil
}

// Save writes label's analysis into the store atomically
// (write-then-rename) and makes it immediately loadable. Any resident
// copy of the same label is invalidated so the next Load sees the new
// bytes. A label CheckLabel rejects writes nothing.
func (r *Registry) Save(label string, a *core.Analysis) error {
	if err := CheckLabel(label); err != nil {
		return err
	}
	if err := WriteFile(r.Path(label), label, a); err != nil {
		return err
	}
	r.noteWritten(label)
	return nil
}

// InstallBytes atomically installs raw snapshot bytes — fetched from
// a replica peer — under label, verifying the label and the envelope
// first so that neither a path outside the directory nor corrupt peer
// bytes ever reach disk. The write shares WriteFile's temp-file
// pattern, so a crash mid-install leaves only an orphan the next
// OpenRegistry sweep reclaims; on success the label is immediately
// loadable, exactly as after Save.
func (r *Registry) InstallBytes(label string, data []byte) error {
	if err := CheckLabel(label); err != nil {
		return err
	}
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

// CheckLabel reports whether label can name a quarter file: it must be
// non-empty and hold no path separator and no "..", so that joining it
// to a store directory cannot reach outside that directory.
func CheckLabel(label string) error {
	if label == "" || strings.ContainsAny(label, `/\`) || strings.Contains(label, "..") {
		return fmt.Errorf("store: bad quarter label %q", label)
	}
	return nil
}

// noteWritten records that label's bytes on disk just changed (Save or
// InstallBytes): cached derivations of the old bytes are forgotten, and
// the label becomes discoverable without waiting for a rescan.
func (r *Registry) noteWritten(label string) {
	r.mu.Lock()
	if !slices.Contains(r.quarters, label) {
		r.quarters = append(r.quarters, label)
		sort.Strings(r.quarters)
	}
	r.mu.Unlock()
	// After the list changes, so the trend invalidation covers it.
	r.forget(label)
}

// forget drops what the registry derived from label's bytes — the
// row's load, quality report and file identity — and then invalidates
// the trend assembly, so the next load reads the file afresh and an
// assembly that read the old copy is not kept. With resilience on the
// row keeps its copy: it is still the fallback if the new bytes fail
// to load, and with no identity it is never promoted in their place.
func (r *Registry) forget(label string) {
	r.mu.Lock()
	if w := r.rows[label]; w != nil {
		w.load, w.q, w.id, w.seen = nil, nil, fileID{}, false
		if r.res == nil {
			w.a = nil
		}
		r.fitLocked()
	}
	r.mu.Unlock()
	r.invalidateTrend()
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
// the stored snapshots, loading each quarter through the table.
func (r *Registry) TrendAnalysis() (*trend.Analysis, error) {
	return r.TrendAnalysisContext(context.Background())
}

// TrendAnalysisContext is TrendAnalysis with a request context: the
// assembly records a "trend_assemble" span whose children are the
// per-quarter store_load spans (hit or decode), so a slow timeline
// request shows exactly which quarter paid for disk.
//
// The assembled analysis is cached until Save, InstallBytes, a
// quarantine, a Refresh that changes the set or finds a rewritten
// quarter, or a load that finds a quarter's file changed invalidates
// it. Until then every call returns the same *trend.Analysis, so
// repeated timeline and drift queries over an unchanged store assemble
// once, and anything derived from the assembly alone (the server's
// encoded drift and timeline bodies) can be memoised against that
// pointer. A replaced assembly is never returned again. The lock is
// held across the assembly: concurrent callers share the computation
// instead of duplicating it.
func (r *Registry) TrendAnalysisContext(ctx context.Context) (*trend.Analysis, error) {
	r.trendMu.Lock()
	defer r.trendMu.Unlock()
	// Every change to the quarter list bumps the generation after it
	// lands, so reading the generation before the list means a list
	// that moves meanwhile is never cached under the newer generation.
	gen := r.trendGen.Load()
	if cached := r.trendCached.Load(); cached != nil && r.trendBuilt == gen {
		return cached, nil
	}
	labels := r.Quarters()
	if len(labels) == 0 {
		return nil, fmt.Errorf("store: no quarters in %s", r.dir)
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
	// An invalidation during the assembly leaves trendBuilt behind
	// trendGen, so the next call assembles again.
	r.trendBuilt = gen
	r.trendCached.Store(ta)
	return ta, nil
}

// IsLatestTrend reports whether ta is the assembly TrendAnalysisContext
// built last. It does not wait for an assembly in progress. Assemblies
// are built one at a time and a replaced one is never returned again,
// so once this reports false for ta it always will: a cache keyed by
// the assembly uses it to keep a fill computed against a superseded
// assembly out of the current one's entries.
func (r *Registry) IsLatestTrend(ta *trend.Analysis) bool {
	return ta != nil && r.trendCached.Load() == ta
}

// invalidateTrend marks the cached trend assembly stale. It takes no
// lock, so it is safe from inside a load that an assembly is waiting on.
func (r *Registry) invalidateTrend() { r.trendGen.Add(1) }

// OpenCount returns how many quarters are hot.
func (r *Registry) OpenCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.recency {
		if w.load != nil {
			n++
		}
	}
	return n
}

// useLocked returns label's row, made if there is none, moved to the
// most recent end of the recency order. Caller holds r.mu.
func (r *Registry) useLocked(label string) *row {
	w := r.rows[label]
	if w == nil {
		w = &row{}
		r.rows[label] = w
	} else if i := slices.Index(r.recency, w); i >= 0 {
		r.recency = slices.Delete(r.recency, i, i+1)
	}
	r.recency = append(r.recency, w)
	return w
}

// fitLocked holds the table to its bounds, walking the rows from the
// most recently loaded. A row past the first maxCopies copies drops its
// copy; a row past the first maxOpen hot rows, or one that just dropped
// its copy, leaves the hot window. Its quality report and file identity
// stay either way. fitLocked sets the open-quarter gauge and counts
// every row that left the window as an eviction. Caller holds r.mu.
func (r *Registry) fitLocked() {
	hot, held, evicted := 0, 0, 0
	for i := len(r.recency) - 1; i >= 0; i-- {
		w := r.recency[i]
		if w.a != nil {
			if held == r.maxCopies {
				w.a = nil
				if w.load != nil {
					w.load = nil
					evicted++
				}
			} else {
				held++
			}
		}
		if w.load != nil {
			if hot == r.maxOpen {
				w.load = nil
				evicted++
			} else {
				hot++
			}
		}
	}
	if m := r.metrics; m != nil {
		m.OpenQuarters.Set(int64(hot))
		m.Evictions.Add(int64(evicted))
	}
}
