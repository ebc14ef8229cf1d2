package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

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

// DefaultStaleCap bounds the decoded copies a resilient registry
// holds when ResilienceOptions.StaleCap is zero.
const DefaultStaleCap = 8

// Origin labels which tier of the degradation ladder answered a
// LoadResilient call: a fresh local load, the quarter's last-good copy
// in the registry's table, or a replica peer. It is the value clients
// see in the OriginHeader on every quarter response.
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
	// StaleCap bounds how many decoded copies the registry holds, hot
	// or retained for promotion and stale serving (0 means
	// DefaultStaleCap). RegistryOptions.MaxOpen's hot window is clamped
	// to it.
	StaleCap int
}

// resState is a registry's resilience machinery; nil means the
// registry behaves exactly as before the resilience layer existed.
type resState struct {
	opts     ResilienceOptions
	breakers *resilience.BreakerSet
}

// initResilience wires the resilience machinery into r from opts.
func (r *Registry) initResilience(opts ResilienceOptions) {
	if opts.StaleCap <= 0 {
		opts.StaleCap = DefaultStaleCap
	}
	s := &resState{opts: opts}
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
// and whether they were promoted from the row's retained copy instead.
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
// With resilience on, a load whose file still has the identity the
// row's retained local copy was decoded from promotes that copy instead
// of decoding: the check runs after both failpoints, under the breaker
// and the retry, so faults play out exactly as they do for a decode.
func (r *Registry) openResilient(ctx context.Context, label, path string, span *obs.Span) (coldLoad, error) {
	loadOnce := func(context.Context) (coldLoad, error) {
		if err := resilience.Inject(resilience.FPLoad); err != nil {
			return coldLoad{}, fmt.Errorf("store: %s: %w", path, err)
		}
		var kept coldLoad
		var current func(fileID) bool
		if r.res != nil {
			current = func(id fileID) bool {
				r.mu.Lock()
				defer r.mu.Unlock()
				w := r.rows[label]
				if w.a == nil || w.peer || !w.id.same(id) {
					return false
				}
				kept = coldLoad{a: w.a, q: w.q, id: id, promoted: true}
				return true
			}
		}
		snap, id, err := openFile(path, current)
		switch {
		case err != nil:
			return coldLoad{}, err
		case snap == nil:
			return kept, nil
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
// rung of the degradation ladder, after the live load and the table's
// copy have both failed. Wire it before serving starts.
func (r *Registry) SetPeerFetch(fetch func(ctx context.Context, label string) (*core.Analysis, error)) {
	r.mu.Lock()
	r.peerFetch = fetch
	r.mu.Unlock()
}

// LoadResilient is LoadContext with graceful degradation, answering
// from the first tier of the ladder that can: the live local load
// (OriginLocal), the quarter's copy in the registry's table
// (OriginStale — or OriginPeer when that copy came from a replica),
// then a replica peer via the SetPeerFetch hook (OriginPeer), whose
// copy the table keeps in turn. A fresh local success (through any
// loader: see LoadContext) refills the table and clears the quarter's
// degraded mark; on error the returned Origin is empty. Without
// resilience options it is LoadContext with OriginLocal on success.
func (r *Registry) LoadResilient(ctx context.Context, label string) (*core.Analysis, Origin, error) {
	a, err := r.LoadContext(ctx, label)
	if err == nil {
		return a, OriginLocal, nil
	}
	if r.res == nil {
		return nil, "", err
	}
	r.mu.Lock()
	var peer bool
	if w := r.rows[label]; w != nil && w.a != nil {
		a, peer = w.a, w.peer
		r.useLocked(label) // a serve keeps the copy recent
	}
	fetch := r.peerFetch
	r.mu.Unlock()
	if a == nil && fetch != nil {
		if pa, perr := fetch(ctx, label); perr == nil && pa != nil {
			a, peer = pa, true
			r.mu.Lock()
			// A hot row holds a fresh local copy; keep that one.
			if w := r.useLocked(label); w.load == nil {
				w.a, w.peer = pa, true
				r.fitLocked()
			}
			r.mu.Unlock()
		}
	}
	if a == nil {
		return nil, "", err
	}
	origin := OriginStale
	if peer {
		origin = OriginPeer
	}
	if m := r.metrics; m != nil {
		switch {
		case peer && m.PeerServes != nil:
			m.PeerServes.Inc()
		case !peer && m.StaleServes != nil:
			m.StaleServes.Inc()
		}
	}
	if span := obs.ActiveSpan(ctx); span != nil {
		span.SetAttr("origin", string(origin))
		if !peer {
			span.SetAttr("stale", "true")
		}
	}
	r.markDegraded(label, origin, err)
	return a, origin, nil
}

// recovered clears w's degraded mark after a fresh local load and, if
// it was set, records the quarter's recovery on the audit timeline.
func (r *Registry) recovered(label string, w *row) {
	r.mu.Lock()
	was := w.degraded
	if was {
		w.degraded = false
		r.degradedRows.Add(-1)
	}
	r.mu.Unlock()
	if was {
		r.auditor.ForgetEvent("store_stale/" + label)
		r.auditor.RecordEvent(audit.Event{
			Rule:     "store_degraded",
			Severity: audit.SevInfo,
			Scope:    label,
			Message:  "quarter recovered: serving fresh snapshot again",
		})
	}
}

// markDegraded flags label as served from a fallback tier and records
// one audit event per degradation episode (cleared by the next fresh
// load).
func (r *Registry) markDegraded(label string, origin Origin, cause error) {
	r.mu.Lock()
	w := r.rows[label]
	first := !w.degraded
	if first {
		w.degraded = true
		r.degradedRows.Add(1)
	}
	r.mu.Unlock()
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

// HasStale reports whether label has a decoded copy in the table —
// i.e. whether LoadResilient could still answer for it even if the
// snapshot vanished from disk (quarantined, deleted).
func (r *Registry) HasStale(label string) bool {
	if r.res == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.rows[label]
	return w != nil && w.a != nil
}

// Degraded reports whether the registry is currently limping: any
// quarter served stale or any load breaker not closed. Always false
// without resilience options.
func (r *Registry) Degraded() bool {
	if r.res == nil {
		return false
	}
	return r.degradedRows.Load() > 0 || r.res.breakers.OpenCount() > 0
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
