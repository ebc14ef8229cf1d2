package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/obs"
	"maras/internal/resilience"
)

// QuarantinedExt is appended to a corrupt snapshot's filename when the
// registry quarantines it ("2014Q1.maras" -> "2014Q1.maras.quarantined").
// The suffix no longer ends in Ext, so Refresh stops discovering the
// file; an operator repairs it out of band and renames it back.
const QuarantinedExt = ".quarantined"

// DefaultStaleCap bounds the last-good stale cache when
// ResilienceOptions.StaleCap is zero.
const DefaultStaleCap = 8

// Origin labels which tier of the degradation ladder answered a
// LoadResilient call: a fresh local load, the in-memory last-good
// cache, or a replica peer. It is the value clients see in the
// OriginHeader on every quarter response.
type Origin string

const (
	OriginLocal Origin = "local"
	OriginStale Origin = "stale"
	OriginPeer  Origin = "peer"
)

// OriginHeader is the response header carrying the serving origin
// (local|stale|peer) on every quarter response.
const OriginHeader = "X-Maras-Origin"

// ResilienceOptions opts a Registry into fault-tolerant loading. The
// zero value (referenced via RegistryOptions.Resilience) enables retry,
// circuit breaking, and stale serving with defaults; quarantine stays
// opt-in because it renames files.
type ResilienceOptions struct {
	// Quarantine, when true, renames a snapshot that fails decode as
	// corrupt (ErrCorrupt/ErrBadMagic) to *.quarantined so it drops out
	// of discovery and stops tripping the breaker on every probe. Off
	// by default: repair-in-place workflows (and tests that exercise
	// them) expect the file to stay where it is.
	Quarantine bool
	// Retry bounds the transient-failure retry around each disk load;
	// the zero value takes resilience.DefaultRetry.
	Retry resilience.RetryConfig
	// Breaker tunes the per-quarter circuit breakers; the zero value
	// takes the resilience defaults.
	Breaker resilience.BreakerConfig
	// StaleCap bounds how many last-good analyses LoadResilient keeps
	// for stale serving (0 means DefaultStaleCap).
	StaleCap int
}

// fallbackCopy is one entry in the last-good cache. Copies cached by
// a fresh local load carry OriginStale (that is what a later serve of
// them is), their quality report, and the identity of the file they
// were decoded from, all taken from one resident entry so they always
// belong to the same decode. Copies fetched from a replica peer keep
// OriginPeer, so the header never claims a peer's bytes were ours, and
// have no identity.
type fallbackCopy struct {
	a      *core.Analysis
	q      *audit.QualityReport
	id     fileID
	origin Origin
}

// resState is a registry's resilience machinery; nil means the
// registry behaves exactly as before the resilience layer existed.
type resState struct {
	opts     ResilienceOptions
	breakers *resilience.BreakerSet

	mu       sync.Mutex
	stale    map[string]fallbackCopy
	order    []string        // stale keys, least-recent first
	degraded map[string]bool // labels currently served from a fallback tier
}

// put inserts or refreshes a copy in the bounded last-good cache,
// which evicts the least recently used label beyond StaleCap. Caller
// holds s.mu.
func (s *resState) put(label string, fc fallbackCopy) {
	if _, ok := s.stale[label]; ok {
		s.touch(label)
	} else {
		s.order = append(s.order, label)
		for len(s.order) > s.opts.StaleCap {
			victim := s.order[0]
			s.order = s.order[1:]
			delete(s.stale, victim)
		}
	}
	s.stale[label] = fc
}

// touch moves label to the most-recent end of s.order. Caller holds
// s.mu.
func (s *resState) touch(label string) {
	for i, l := range s.order {
		if l == label {
			copy(s.order[i:], s.order[i+1:])
			s.order[len(s.order)-1] = label
			return
		}
	}
}

// promotable returns label's retained copy if it was decoded from the
// file id identifies, refreshing its recency; otherwise the zero
// value. A peer's copy never qualifies: its bytes were never read from
// this file.
func (s *resState) promotable(label string, id fileID) fallbackCopy {
	s.mu.Lock()
	defer s.mu.Unlock()
	fc := s.stale[label]
	if fc.origin != OriginStale || !fc.id.same(id) {
		return fallbackCopy{}
	}
	s.touch(label)
	return fc
}

// initResilience wires the resilience machinery into r from opts.
func (r *Registry) initResilience(opts ResilienceOptions) {
	if opts.StaleCap <= 0 {
		opts.StaleCap = DefaultStaleCap
	}
	s := &resState{
		opts:     opts,
		stale:    map[string]fallbackCopy{},
		degraded: map[string]bool{},
	}
	s.breakers = resilience.NewBreakerSet(opts.Breaker, func(key string, from, to resilience.BreakerState) {
		if m := r.metrics; m != nil && m.BreakersOpen != nil {
			m.BreakersOpen.Set(int64(s.breakers.OpenCount()))
		}
		sev := audit.SevWarn
		if to == resilience.StateClosed {
			sev = audit.SevInfo
		}
		r.auditor.RecordEvent(audit.Event{
			Rule:     "store_breaker",
			Severity: sev,
			Scope:    key,
			Message:  fmt.Sprintf("load breaker %s -> %s", from, to),
		})
	})
	r.res = s
}

// classifyLoad decides whether a failed snapshot load is worth
// retrying. Damage and format mismatches cannot clear on their own;
// neither can a missing file or an open breaker. Everything else is
// treated as a transient I/O hiccup.
func classifyLoad(err error) resilience.Class {
	switch {
	case errors.Is(err, ErrCorrupt),
		errors.Is(err, ErrBadMagic),
		errors.Is(err, ErrVersion),
		errors.Is(err, os.ErrNotExist),
		errors.Is(err, resilience.ErrBreakerOpen),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return resilience.Permanent
	}
	return resilience.Transient
}

// coldLoad is what one cold load produced: the analysis and quality
// report, the identity of the file they came from, the bytes decoded,
// and whether they were promoted from the last-good cache instead.
type coldLoad struct {
	a        *core.Analysis
	q        *audit.QualityReport
	id       fileID
	size     int64
	promoted bool
}

// openResilient performs the disk read behind a cold load. Without
// resilience options it is a plain Open (plus the load failpoint the
// chaos harness drives). With them, the read runs behind the quarter's
// circuit breaker with transient-failure retry; a corrupt decode trips
// the breaker immediately and — when opted in — quarantines the file.
//
// With resilience on, a load whose file still has the identity of the
// quarter's retained last-good copy promotes that copy instead of
// decoding: the check runs after both failpoints, under the breaker
// and the retry, so faults play out exactly as they do for a decode.
func (r *Registry) openResilient(ctx context.Context, label, path string, span *obs.Span) (coldLoad, error) {
	loadOnce := func(context.Context) (coldLoad, error) {
		if err := resilience.Inject(resilience.FPLoad); err != nil {
			return coldLoad{}, fmt.Errorf("store: %s: %w", path, err)
		}
		var kept fallbackCopy
		var current func(fileID) bool
		if r.res != nil {
			current = func(id fileID) bool {
				kept = r.res.promotable(label, id)
				return kept.a != nil
			}
		}
		snap, id, err := openFile(path, current)
		switch {
		case err != nil:
			return coldLoad{}, err
		case snap == nil:
			return coldLoad{a: kept.a, q: kept.q, id: id, promoted: true}, nil
		}
		return coldLoad{a: snap.Analysis, q: snap.Quality, id: id, size: snap.Size}, nil
	}
	if r.res == nil {
		return loadOnce(ctx)
	}
	br := r.res.breakers.Get(label)
	if !br.Allow() {
		span.SetAttr("breaker", "open")
		return coldLoad{}, fmt.Errorf("store: quarter %q: %w", label, resilience.ErrBreakerOpen)
	}
	var out coldLoad
	attempts, err := r.res.opts.Retry.Do(ctx, func(ctx context.Context) error {
		c, e := loadOnce(ctx)
		if e == nil {
			out = c
		}
		return e
	}, classifyLoad)
	if attempts > 1 {
		if m := r.metrics; m != nil && m.Retries != nil {
			m.Retries.Add(int64(attempts - 1))
		}
		span.SetInt("retries", int64(attempts-1))
	}
	if err != nil {
		permanent := classifyLoad(err) == resilience.Permanent
		br.Failure(permanent)
		if r.res.opts.Quarantine && (errors.Is(err, ErrCorrupt) || errors.Is(err, ErrBadMagic)) {
			r.quarantine(label, path, err)
		}
		return coldLoad{}, err
	}
	br.Success()
	return out, nil
}

// quarantine moves label's corrupt snapshot aside and removes the
// quarter from discovery: the file keeps its bytes for forensics, the
// serving path stops routing to it, and the breaker (now guarding
// nothing) is dropped. An operator repairs the file and renames it
// back (or re-mines with Save); either way the quarter returns.
func (r *Registry) quarantine(label, path string, cause error) {
	qpath := path + QuarantinedExt
	if err := os.Rename(path, qpath); err != nil {
		r.auditor.RecordEvent(audit.Event{
			Rule:     "store_quarantine",
			Severity: audit.SevFail,
			Scope:    label,
			Message:  "quarantine rename failed: " + err.Error(),
		})
		return
	}
	if m := r.metrics; m != nil && m.Quarantined != nil {
		m.Quarantined.Inc()
	}
	r.auditor.RecordEvent(audit.Event{
		Rule:     "store_quarantine",
		Severity: audit.SevFail,
		Scope:    label,
		Message:  fmt.Sprintf("corrupt snapshot quarantined to %s: %v", filepath.Base(qpath), cause),
	})
	r.mu.Lock()
	for i, q := range r.quarters {
		if q == label {
			r.quarters = append(r.quarters[:i], r.quarters[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
	r.forget(label)
	r.res.breakers.Remove(label)
	// Remove drops the breaker without a state-change callback; refresh
	// the gauge so an open breaker does not linger on /metrics after
	// its quarter is gone.
	if m := r.metrics; m != nil && m.BreakersOpen != nil {
		m.BreakersOpen.Set(int64(r.res.breakers.OpenCount()))
	}
}

// SetPeerFetch installs the replica read-failover hook: a function
// that fetches label's analysis from any healthy peer (verified
// bytes, decoded in memory). LoadResilient consults it as the last
// rung of the degradation ladder, after the live load and the
// last-good cache have both failed. Wire it before serving starts.
func (r *Registry) SetPeerFetch(fetch func(ctx context.Context, label string) (*core.Analysis, error)) {
	r.mu.Lock()
	r.peerFetch = fetch
	r.mu.Unlock()
}

func (r *Registry) peerFetcher() func(ctx context.Context, label string) (*core.Analysis, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peerFetch
}

// LoadResilient is LoadContext with graceful degradation, answering
// from the first tier of the ladder that can: the live local load
// (OriginLocal), the in-memory last-good cache (OriginStale — or
// OriginPeer when the cached copy itself came from a replica), then a
// replica peer via the SetPeerFetch hook (OriginPeer). A fresh local
// success (through any loader: see Registry.load) repopulates the cache
// and clears the quarter's degraded mark; on error the returned Origin
// is empty. Without resilience options it is LoadContext with
// OriginLocal on success.
func (r *Registry) LoadResilient(ctx context.Context, label string) (*core.Analysis, Origin, error) {
	e, err := r.load(ctx, label)
	if err == nil {
		return e.a, OriginLocal, nil
	}
	if r.res == nil {
		return nil, "", err
	}
	if fc := r.fallbackFor(label); fc.a != nil {
		if m := r.metrics; m != nil {
			switch {
			case fc.origin == OriginPeer && m.PeerServes != nil:
				m.PeerServes.Inc()
			case fc.origin != OriginPeer && m.StaleServes != nil:
				m.StaleServes.Inc()
			}
		}
		if span := obs.ActiveSpan(ctx); span != nil {
			span.SetAttr("origin", string(fc.origin))
			if fc.origin == OriginStale {
				span.SetAttr("stale", "true")
			}
		}
		r.markDegraded(label, fc.origin, err)
		return fc.a, fc.origin, nil
	}
	if fetch := r.peerFetcher(); fetch != nil {
		pa, perr := fetch(ctx, label)
		if perr == nil && pa != nil {
			if m := r.metrics; m != nil && m.PeerServes != nil {
				m.PeerServes.Inc()
			}
			if span := obs.ActiveSpan(ctx); span != nil {
				span.SetAttr("origin", string(OriginPeer))
			}
			if s := r.res; s != nil {
				s.mu.Lock()
				s.put(label, fallbackCopy{a: pa, origin: OriginPeer})
				s.mu.Unlock()
			}
			r.markDegraded(label, OriginPeer, err)
			return pa, OriginPeer, nil
		}
	}
	return nil, "", err
}

// noteFresh records a successful local load, whichever loader made it
// (LoadResilient, LoadContext, the quality sweep, trend assembly): the
// entry's analysis, quality report and file identity become the
// quarter's last-good stale copy, and a previously degraded quarter is
// marked recovered on the audit timeline.
func (r *Registry) noteFresh(label string, e *entry) {
	s := r.res
	if s == nil {
		return
	}
	s.mu.Lock()
	s.put(label, fallbackCopy{a: e.a, q: e.q, id: e.id, origin: OriginStale})
	recovered := s.degraded[label]
	delete(s.degraded, label)
	s.mu.Unlock()
	if recovered {
		r.auditor.ForgetEvent("store_stale/" + label)
		r.auditor.RecordEvent(audit.Event{
			Rule:     "store_degraded",
			Severity: audit.SevInfo,
			Scope:    label,
			Message:  "quarter recovered: serving fresh snapshot again",
		})
	}
}

// fallbackFor returns label's cached last-good copy, refreshing its
// LRU position; the zero value means no copy.
func (r *Registry) fallbackFor(label string) fallbackCopy {
	s := r.res
	s.mu.Lock()
	defer s.mu.Unlock()
	fc := s.stale[label]
	if fc.a != nil {
		s.touch(label)
	}
	return fc
}

// markDegraded flags label as served from a fallback tier and records
// one audit event per degradation episode (cleared by the next fresh
// load).
func (r *Registry) markDegraded(label string, origin Origin, cause error) {
	s := r.res
	s.mu.Lock()
	first := !s.degraded[label]
	s.degraded[label] = true
	s.mu.Unlock()
	if first {
		msg := "serving last-good stale snapshot: " + cause.Error()
		if origin == OriginPeer {
			msg = "serving from replica peer: " + cause.Error()
		}
		r.auditor.RecordEventOnce("store_stale/"+label, audit.Event{
			Rule:     "store_degraded",
			Severity: audit.SevWarn,
			Scope:    label,
			Message:  msg,
		})
	}
}

// HasStale reports whether label has a cached last-good copy — i.e.
// whether LoadResilient could still answer for it even if the snapshot
// vanished from disk (quarantined, deleted).
func (r *Registry) HasStale(label string) bool {
	s := r.res
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stale[label].a != nil
}

// Degraded reports whether the registry is currently limping: any
// quarter served stale or any load breaker not closed. Always false
// without resilience options.
func (r *Registry) Degraded() bool {
	s := r.res
	if s == nil {
		return false
	}
	s.mu.Lock()
	n := len(s.degraded)
	s.mu.Unlock()
	return n > 0 || s.breakers.OpenCount() > 0
}

// BreakerStates snapshots the per-quarter load-breaker states; empty
// without resilience options.
func (r *Registry) BreakerStates() map[string]resilience.BreakerState {
	if r.res == nil {
		return map[string]resilience.BreakerState{}
	}
	return r.res.breakers.States()
}

// sweepOrphans removes write-temp files (label.maras.tmp*) left behind
// by a writer that crashed between CreateTemp and the rename. Called
// once at OpenRegistry, never during serving, so it cannot race a live
// writer's rename.
func (r *Registry) sweepOrphans() int {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if name := e.Name(); strings.Contains(name, Ext+".tmp") {
			if os.Remove(filepath.Join(r.dir, name)) == nil {
				removed++
			}
		}
	}
	if removed > 0 {
		r.auditor.RecordEvent(audit.Event{
			Rule:     "store_tmp_sweep",
			Severity: audit.SevInfo,
			Scope:    "store",
			Message:  fmt.Sprintf("removed %d orphaned snapshot temp file(s)", removed),
		})
	}
	return removed
}
