package watch

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"maras/internal/audit"
	"maras/internal/knowledge"
	"maras/internal/obs"
	"maras/internal/obs/wide"
)

// SpanEvaluate is the trace span emitted around every evaluation pass.
const SpanEvaluate = "watch_evaluate"

// DefaultEvalBudget is the per-pass latency budget when Options leaves
// it zero; passes exceeding it raise a SevWarn audit event.
const DefaultEvalBudget = 50 * time.Millisecond

// Options wires an Evaluator. Index is required; everything else is
// optional (nil Feeds drops alerts, nil Metrics skips metering, nil
// Auditor disables slow-pass events, nil Knowledge makes every signal
// "unexpected").
type Options struct {
	Index     *Index
	Feeds     *Feeds
	Knowledge *knowledge.Base
	Metrics   *Metrics
	Auditor   *audit.Auditor
	// Budget is the per-pass latency budget (DefaultEvalBudget when
	// zero); exceeding it records a watch_eval_slow audit event.
	Budget time.Duration
	// Wide, when non-nil, receives one wide event per evaluation pass
	// (kind watch_eval, quarter, duration) linked to the triggering
	// trace when one is active.
	Wide *wide.Ring
	// Now stubs the clock in tests.
	Now func() time.Time
}

// Result summarizes one evaluation pass.
type Result struct {
	Quarter    string    `json:"quarter"`
	Signals    int       `json:"signals"`
	Changed    int       `json:"changed"`
	Candidates int       `json:"candidates"`
	Alerts     int       `json:"alerts"`
	Suppressed int       `json:"suppressed"`
	DurationMS float64   `json:"duration_ms"`
	At         time.Time `json:"at"`
}

// EvalStats is the operational view of the evaluator.
type EvalStats struct {
	Evaluations     uint64 `json:"evaluations"`
	TrackedQuarters int    `json:"tracked_quarters"`
	LastResult      Result `json:"last_result"`
}

// Evaluator routes changed signals through the index and materializes
// qualified alerts. Evaluation passes are serialized by ev.mu; the
// index is only read-locked during routing, so CRUD stays responsive
// under evaluation.
type Evaluator struct {
	opts   Options
	budget time.Duration
	now    func() time.Time

	mu sync.Mutex
	// fps holds, per quarter label, each signal identity's last-seen
	// fingerprint. A signal is "changed" when its fingerprint differs
	// (or the quarter is new or marked dirty).
	fps map[string]map[uint64]uint64
	// fired dedups alerts per quarter label: the fnv hash of
	// (list ID, signal key, fingerprint). Dirty re-evaluations re-route
	// unchanged signals; this is what keeps them from re-firing.
	fired map[string]map[uint64]struct{}
	// dirty marks quarters whose next pass must re-route every signal
	// (set when drift churn or rank-shift events implicate them).
	dirty map[string]bool

	m     marks
	evals uint64
	last  Result
}

// NewEvaluator wires an evaluator; Options.Index must be non-nil.
func NewEvaluator(opts Options) *Evaluator {
	if opts.Index == nil {
		panic("watch: Options.Index required")
	}
	budget := opts.Budget
	if budget <= 0 {
		budget = DefaultEvalBudget
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	return &Evaluator{
		opts:   opts,
		budget: budget,
		now:    now,
		fps:    map[string]map[uint64]uint64{},
		fired:  map[string]map[uint64]struct{}{},
		dirty:  map[string]bool{},
	}
}

// sigView is the per-changed-signal state precomputed once before
// routing, so the inner (signal × candidate) loop does map lookups
// and integer compares only — at 1M lists the message sprintf alone
// would otherwise dominate the pass.
type sigView struct {
	sig        *Signal
	fp         uint64
	sev        int
	sevName    string
	rare       bool
	unexpected bool
	message    string
	drugSet    map[string]bool
	reacSet    map[string]bool
}

// EvaluateQuarter fingerprints the quarter's signals, routes the
// changed ones through the index, qualifies each candidate watchlist,
// and pushes qualified alerts to the feeds. Safe for concurrent use;
// passes are serialized.
func (ev *Evaluator) EvaluateQuarter(ctx context.Context, label string, sigs []Signal) Result {
	var (
		res   Result
		slow  bool
		trace string
	)
	// The pass is one obs.Do unit: a watch_evaluate span, run under
	// op=watch_eval for continuous-profiling captures — at 1M lists
	// this is a hot path worth attributing.
	obs.Do(ctx, nil, SpanEvaluate, func(ctx context.Context, st *obs.Stage) {
		sp := obs.ActiveSpan(ctx)
		sp.SetAttr("quarter", label)
		trace = sp.TraceID()
		start := ev.now()
		ev.mu.Lock()
		res, slow = ev.evaluateLocked(label, sigs, start)
		ev.mu.Unlock()
		st.Count("signals", int64(res.Signals))
		st.Count("changed", int64(res.Changed))
		st.Count("candidates", int64(res.Candidates))
		st.Count("alerts", int64(res.Alerts))
	}, obs.LabelOp, "watch_eval", "quarter", label)

	if m := ev.opts.Metrics; m != nil {
		m.Evaluations.Inc()
		m.ChangedSignals.Add(int64(res.Changed))
		m.Candidates.Add(int64(res.Candidates))
		m.Alerts.Add(int64(res.Alerts))
		m.Suppressed.Add(int64(res.Suppressed))
		m.EvalSeconds.Observe(res.DurationMS / 1000)
		m.SyncIndex(ev.opts.Index.Stats())
	}
	ev.opts.Wide.Emit(wide.Event{
		Kind: wide.KindWatchEval, Quarter: label, Status: 200,
		Duration: time.Duration(res.DurationMS * float64(time.Millisecond)),
		Trace:    trace,
	})

	// Audit the budget breach after releasing ev.mu: Record invokes
	// subscribers synchronously, and HandleAuditEvent may be one.
	key := "watch/slow_eval/" + label
	if slow {
		ev.opts.Auditor.RecordEventOnce(key, audit.Event{
			Rule:     "watch_eval_slow",
			Severity: audit.SevWarn,
			Scope:    label,
			Message: fmt.Sprintf("watch evaluation of %s took %.1fms (budget %s)",
				label, res.DurationMS, ev.budget),
		})
	} else {
		ev.opts.Auditor.ForgetEvent(key)
	}
	return res
}

func (ev *Evaluator) evaluateLocked(label string, sigs []Signal, start time.Time) (Result, bool) {
	res := Result{Quarter: label, Signals: len(sigs), At: start}

	// Rarity gate baseline: the quarter's mean signal support.
	var meanSupport float64
	if len(sigs) > 0 {
		total := 0
		for i := range sigs {
			total += sigs[i].Support
		}
		meanSupport = float64(total) / float64(len(sigs))
	}

	// Changed detection against the quarter's fingerprint map. A dirty
	// quarter re-routes everything; the fired dedup below keeps
	// unchanged state from re-firing.
	prev := ev.fps[label]
	if prev == nil {
		prev = make(map[uint64]uint64, len(sigs))
		ev.fps[label] = prev
	}
	forceAll := ev.dirty[label]
	delete(ev.dirty, label)

	changed := make([]sigView, 0, 16)
	kb := ev.opts.Knowledge
	for i := range sigs {
		s := &sigs[i]
		id := s.identity()
		fp := s.fingerprint()
		if !forceAll {
			if old, seen := prev[id]; seen && old == fp {
				continue
			}
		}
		prev[id] = fp
		v := sigView{
			sig:     s,
			fp:      fp,
			sev:     s.severity(),
			rare:    float64(s.Support) < meanSupport,
			drugSet: make(map[string]bool, len(s.Drugs)),
			reacSet: make(map[string]bool, len(s.Reactions)),
		}
		v.sevName = severityFloorName(v.sev)
		for _, d := range s.Drugs {
			v.drugSet[d] = true
		}
		for _, r := range s.Reactions {
			v.reacSet[r] = true
		}
		if s.Known == nil {
			v.unexpected = true
		} else if kb != nil {
			for _, r := range s.Reactions {
				if !kb.KnownReaction(s.Drugs, r) {
					v.unexpected = true
					break
				}
			}
		}
		v.message = fmt.Sprintf("%s: signal %s rank %d score %.3f support %d",
			label, s.Key, s.Rank, s.Score, s.Support)
		changed = append(changed, v)
	}
	res.Changed = len(changed)
	if len(changed) == 0 {
		res.DurationMS = float64(ev.now().Sub(start)) / float64(time.Millisecond)
		ev.finishLocked(&res)
		return res, res.DurationMS > float64(ev.budget)/float64(time.Millisecond)
	}

	fired := ev.fired[label]
	if fired == nil {
		fired = map[uint64]struct{}{}
		ev.fired[label] = fired
	}

	var alerts []Alert
	ix := ev.opts.Index
	ix.mu.RLock()
	for i := range changed {
		v := &changed[i]
		ix.forEachCandidate(v.sig.Drugs, v.sig.Reactions, &ev.m, func(w *Watchlist, viaReaction bool) {
			res.Candidates++
			// Cross-dimension check: the arrival dimension is matched by
			// construction; only the other dimension (when the list has
			// one) needs verifying.
			if viaReaction {
				if len(w.Drugs) > 0 && !anyIn(w.Drugs, v.drugSet) {
					return
				}
			} else if len(w.Reactions) > 0 && !anyIn(w.Reactions, v.reacSet) {
				return
			}
			if v.sig.Support < w.MinSupport || v.sig.Score < w.MinScore {
				return
			}
			if v.sev < w.sevFloor {
				return
			}
			if w.RareOnly && !v.rare {
				return
			}
			if w.UnexpectedOnly && !v.unexpected {
				return
			}
			h := fnvU64(fnvStr(fnvStr(uint64(fnvOffset), w.ID), v.sig.Key), v.fp)
			if _, dup := fired[h]; dup {
				res.Suppressed++
				return
			}
			fired[h] = struct{}{}
			alerts = append(alerts, Alert{
				User:      w.User,
				ListID:    w.ID,
				ListName:  w.Name,
				Kind:      "signal",
				Quarter:   label,
				SignalKey: v.sig.Key,
				Rank:      v.sig.Rank,
				Score:     v.sig.Score,
				Support:   v.sig.Support,
				Severity:  v.sevName,
				Message:   v.message,
			})
		})
	}
	ix.mu.RUnlock()

	res.Alerts = len(alerts)
	if f := ev.opts.Feeds; f != nil && len(alerts) > 0 {
		if dropped := f.PushAll(start, alerts); dropped > 0 {
			if m := ev.opts.Metrics; m != nil {
				m.FeedDropped.Add(int64(dropped))
			}
		}
	}
	res.DurationMS = float64(ev.now().Sub(start)) / float64(time.Millisecond)
	ev.finishLocked(&res)
	return res, res.DurationMS > float64(ev.budget)/float64(time.Millisecond)
}

func (ev *Evaluator) finishLocked(res *Result) {
	ev.evals++
	ev.last = *res
}

// anyIn reports whether any term is in the set. Lists hold at most
// MaxTerms terms, so a linear scan over the list side is cheapest.
func anyIn(terms []string, set map[string]bool) bool {
	for _, t := range terms {
		if set[t] {
			return true
		}
	}
	return false
}

// HandleAuditEvent consumes audit-log events (wire it with
// audit.Log.OnRecord). signal_lost events with a Subject fire "drift"
// alerts to lists watching any of the lost combination's drugs;
// signal_churn and rank_shift events mark the destination quarter
// dirty so its next evaluation re-routes every signal. Rule gating
// happens before any locking — Record may deliver events the
// evaluator itself produced (watch_eval_slow), and those must not
// re-enter ev.mu.
func (ev *Evaluator) HandleAuditEvent(e audit.Event) {
	switch e.Rule {
	case audit.RuleSignalLost:
		if e.Subject == "" {
			return
		}
		if m := ev.opts.Metrics; m != nil {
			m.DriftEvents.Inc()
		}
		ev.lostSignalAlerts(e)
	case audit.RuleChurn, audit.RuleRankShift:
		if m := ev.opts.Metrics; m != nil {
			m.DriftEvents.Inc()
		}
		// Scope is "from->to"; the destination quarter's signal set is
		// the one whose standing shifted.
		if _, to, ok := strings.Cut(e.Scope, "->"); ok && to != "" {
			ev.mu.Lock()
			ev.dirty[to] = true
			ev.mu.Unlock()
		}
	}
}

// Dirty reports whether label is marked for a full re-route on its
// next evaluation (see HandleAuditEvent). The store registry asks it
// before skipping the evaluation of an unchanged quarter.
func (ev *Evaluator) Dirty(label string) bool {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return ev.dirty[label]
}

// lostSignalAlerts routes a signal_lost drift event: the Subject is
// the lost signal's drug-combination key, so routing goes through drug
// postings only (a reaction-only list has no stake in which drugs
// vanished). Qualification gates are skipped — losing a watched signal
// is always notable — but dedup still applies.
func (ev *Evaluator) lostSignalAlerts(e audit.Event) {
	drugs := strings.Split(e.Subject, "+")
	drugSet := make(map[string]bool, len(drugs))
	for _, d := range drugs {
		drugSet[d] = true
	}
	msg := e.Message
	if msg == "" {
		msg = "signal " + e.Subject + " no longer ranks (" + e.Scope + ")"
	}

	ev.mu.Lock()
	defer ev.mu.Unlock()
	fired := ev.fired[e.Scope]
	if fired == nil {
		fired = map[uint64]struct{}{}
		ev.fired[e.Scope] = fired
	}
	var alerts []Alert
	ix := ev.opts.Index
	ix.mu.RLock()
	ix.forEachCandidate(drugs, nil, &ev.m, func(w *Watchlist, _ bool) {
		h := fnvStr(fnvStr(fnvStr(uint64(fnvOffset), w.ID), e.Subject), e.Scope)
		if _, dup := fired[h]; dup {
			return
		}
		fired[h] = struct{}{}
		alerts = append(alerts, Alert{
			User:      w.User,
			ListID:    w.ID,
			ListName:  w.Name,
			Kind:      "drift",
			Quarter:   e.Scope,
			SignalKey: e.Subject,
			Message:   msg,
		})
	})
	ix.mu.RUnlock()
	if f := ev.opts.Feeds; f != nil && len(alerts) > 0 {
		f.PushAll(ev.now(), alerts)
	}
	if m := ev.opts.Metrics; m != nil && len(alerts) > 0 {
		m.Alerts.Add(int64(len(alerts)))
	}
}

// ResetQuarter forgets a quarter's fingerprints, fired-alert dedup,
// and dirty mark — benchmarks use it to force full re-evaluation.
func (ev *Evaluator) ResetQuarter(label string) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	delete(ev.fps, label)
	delete(ev.fired, label)
	delete(ev.dirty, label)
}

// Stats snapshots the evaluator.
func (ev *Evaluator) Stats() EvalStats {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return EvalStats{
		Evaluations:     ev.evals,
		TrackedQuarters: len(ev.fps),
		LastResult:      ev.last,
	}
}
