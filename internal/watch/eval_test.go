package watch

import (
	"context"
	"strings"
	"testing"
	"time"

	"maras/internal/audit"
	"maras/internal/knowledge"
)

func testEvaluator(t *testing.T, lists ...*Watchlist) (*Evaluator, *Feeds) {
	t.Helper()
	ix := NewIndex()
	for _, w := range lists {
		mustAdd(t, ix, w)
	}
	feeds := NewFeeds(32)
	ev := NewEvaluator(Options{
		Index:     ix,
		Feeds:     feeds,
		Knowledge: knowledge.Builtin(),
	})
	return ev, feeds
}

// sigAW is a curated severe signal (ASPIRIN+WARFARIN -> Haemorrhage).
func sigAW() Signal {
	return Signal{
		Key:          "ASPIRIN+WARFARIN",
		Drugs:        []string{"ASPIRIN", "WARFARIN"},
		Reactions:    []string{"HAEMORRHAGE"},
		Rank:         1,
		Score:        0.91,
		Support:      40,
		SeriousShare: 0.7,
		Known:        knowledge.Builtin().Lookup([]string{"ASPIRIN", "WARFARIN"}),
	}
}

// sigNovel is an uncurated low-support signal.
func sigNovel() Signal {
	return Signal{
		Key:          "DRUGX+DRUGY",
		Drugs:        []string{"DRUGX", "DRUGY"},
		Reactions:    []string{"DIZZINESS"},
		Rank:         9,
		Score:        0.30,
		Support:      4,
		SeriousShare: 0.1,
	}
}

func TestEvaluateQualification(t *testing.T) {
	ev, feeds := testEvaluator(t,
		&Watchlist{ID: "drug-match", User: "u1", Drugs: []string{"aspirin"}},
		&Watchlist{ID: "reac-match", User: "u2", Reactions: []string{"Haemorrhage"}},
		&Watchlist{ID: "cross-miss", User: "u3", Drugs: []string{"ASPIRIN"}, Reactions: []string{"RASH"}},
		&Watchlist{ID: "score-gate", User: "u4", Drugs: []string{"ASPIRIN"}, MinScore: 0.95},
		&Watchlist{ID: "support-gate", User: "u5", Drugs: []string{"ASPIRIN"}, MinSupport: 100},
		&Watchlist{ID: "severe-ok", User: "u6", Drugs: []string{"ASPIRIN"}, SeverityFloor: "severe"},
		&Watchlist{ID: "unexpected-gate", User: "u7", Drugs: []string{"ASPIRIN"}, UnexpectedOnly: true},
		&Watchlist{ID: "other-drug", User: "u8", Drugs: []string{"LISINOPRIL"}},
	)
	res := ev.EvaluateQuarter(context.Background(), "2014Q1", []Signal{sigAW()})
	if res.Signals != 1 || res.Changed != 1 {
		t.Fatalf("result = %+v", res)
	}
	want := map[string]bool{"drug-match": true, "reac-match": true, "severe-ok": true}
	got := map[string]bool{}
	for user := range map[string]bool{"u1": true, "u2": true, "u3": true, "u4": true, "u5": true, "u6": true, "u7": true, "u8": true} {
		for _, a := range feeds.Since(user, 0, 0) {
			got[a.ListID] = true
			if a.Kind != "signal" || a.Quarter != "2014Q1" || a.SignalKey != "ASPIRIN+WARFARIN" {
				t.Errorf("alert %+v", a)
			}
			if a.Severity != "severe" {
				t.Errorf("severity = %q", a.Severity)
			}
		}
	}
	for id := range want {
		if !got[id] {
			t.Errorf("list %s did not fire", id)
		}
	}
	for id := range got {
		if !want[id] {
			t.Errorf("list %s fired but should have been gated", id)
		}
	}
	if res.Alerts != len(want) {
		t.Errorf("alerts = %d, want %d", res.Alerts, len(want))
	}
}

func TestEvaluateRareAndUnexpected(t *testing.T) {
	ev, feeds := testEvaluator(t,
		&Watchlist{ID: "rare", User: "r", Drugs: []string{"DRUGX", "ASPIRIN"}, RareOnly: true},
		&Watchlist{ID: "unexp", User: "x", Drugs: []string{"DRUGX", "ASPIRIN"}, UnexpectedOnly: true},
	)
	// Mean support = (40+4)/2 = 22: the novel signal is rare, the
	// curated one is not; the novel one is unexpected (Known == nil).
	ev.EvaluateQuarter(context.Background(), "2014Q1", []Signal{sigAW(), sigNovel()})
	for _, tc := range []struct{ user, wantKey string }{
		{"r", "DRUGX+DRUGY"},
		{"x", "DRUGX+DRUGY"},
	} {
		alerts := feeds.Since(tc.user, 0, 0)
		if len(alerts) != 1 || alerts[0].SignalKey != tc.wantKey {
			t.Fatalf("user %s alerts = %+v", tc.user, alerts)
		}
	}
}

// The dedup acceptance criterion: re-evaluating identical signal
// state routes nothing and fires nothing.
func TestEvaluateUnchangedFiresNothing(t *testing.T) {
	ev, feeds := testEvaluator(t,
		&Watchlist{ID: "a", User: "u", Drugs: []string{"ASPIRIN"}},
	)
	first := ev.EvaluateQuarter(context.Background(), "2014Q1", []Signal{sigAW(), sigNovel()})
	if first.Alerts != 1 {
		t.Fatalf("first pass alerts = %d", first.Alerts)
	}
	second := ev.EvaluateQuarter(context.Background(), "2014Q1", []Signal{sigAW(), sigNovel()})
	if second.Changed != 0 || second.Candidates != 0 || second.Alerts != 0 {
		t.Fatalf("unchanged re-evaluation = %+v", second)
	}
	if n := len(feeds.Since("u", 0, 0)); n != 1 {
		t.Fatalf("feed grew to %d alerts", n)
	}
}

func TestEvaluateChangedSignalRefires(t *testing.T) {
	ev, feeds := testEvaluator(t,
		&Watchlist{ID: "a", User: "u", Drugs: []string{"ASPIRIN"}},
	)
	s := sigAW()
	ev.EvaluateQuarter(context.Background(), "2014Q1", []Signal{s})
	s.Score = 0.95 // refresh moved the score
	res := ev.EvaluateQuarter(context.Background(), "2014Q1", []Signal{s})
	if res.Changed != 1 || res.Alerts != 1 {
		t.Fatalf("changed re-evaluation = %+v", res)
	}
	alerts := feeds.Since("u", 0, 0)
	if len(alerts) != 2 || alerts[1].Score != 0.95 {
		t.Fatalf("alerts = %+v", alerts)
	}
	// The same quarter in a different label is independent state.
	res = ev.EvaluateQuarter(context.Background(), "2014Q2", []Signal{s})
	if res.Alerts != 1 {
		t.Fatalf("other quarter = %+v", res)
	}
}

func TestHandleAuditEventSignalLost(t *testing.T) {
	ev, feeds := testEvaluator(t,
		&Watchlist{ID: "drug", User: "u1", Drugs: []string{"ASPIRIN"}, MinScore: 99, MinSupport: 99},
		&Watchlist{ID: "reac-only", User: "u2", Reactions: []string{"HAEMORRHAGE"}},
	)
	e := audit.Event{
		Rule:    audit.RuleSignalLost,
		Scope:   "2014Q1->2014Q2",
		Subject: "ASPIRIN+WARFARIN",
		Message: "signal vanished",
	}
	ev.HandleAuditEvent(e)
	ev.HandleAuditEvent(e) // same loss reported twice dedups

	alerts := feeds.Since("u1", 0, 0)
	if len(alerts) != 1 {
		t.Fatalf("u1 alerts = %+v", alerts)
	}
	a := alerts[0]
	// Thresholds do not gate drift alerts (the list's MinScore 99
	// would reject any signal).
	if a.Kind != "drift" || a.SignalKey != "ASPIRIN+WARFARIN" || a.Quarter != "2014Q1->2014Q2" {
		t.Fatalf("alert = %+v", a)
	}
	if !strings.Contains(a.Message, "vanished") {
		t.Fatalf("message = %q", a.Message)
	}
	// Reaction-only lists have no stake in lost drug combinations.
	if got := feeds.Since("u2", 0, 0); len(got) != 0 {
		t.Fatalf("reaction-only list alerted: %+v", got)
	}
}

func TestHandleAuditEventChurnMarksDirty(t *testing.T) {
	ev, feeds := testEvaluator(t,
		&Watchlist{ID: "a", User: "u", Drugs: []string{"ASPIRIN"}},
	)
	sigs := []Signal{sigAW()}
	ev.EvaluateQuarter(context.Background(), "2014Q2", sigs)
	if res := ev.EvaluateQuarter(context.Background(), "2014Q2", sigs); res.Changed != 0 {
		t.Fatalf("precondition: unchanged pass routed %d", res.Changed)
	}

	ev.HandleAuditEvent(audit.Event{Rule: audit.RuleChurn, Scope: "2014Q1->2014Q2"})
	if !ev.Dirty("2014Q2") || ev.Dirty("2014Q1") {
		t.Fatalf("Dirty(2014Q2) = %v, Dirty(2014Q1) = %v; want only the destination", ev.Dirty("2014Q2"), ev.Dirty("2014Q1"))
	}
	res := ev.EvaluateQuarter(context.Background(), "2014Q2", sigs)
	// Dirty forces re-routing, but fired-state dedup still suppresses
	// the unchanged alert.
	if res.Changed != 1 || res.Alerts != 0 || res.Suppressed != 1 {
		t.Fatalf("dirty re-evaluation = %+v", res)
	}
	if n := len(feeds.Since("u", 0, 0)); n != 1 {
		t.Fatalf("feed has %d alerts", n)
	}
	// Dirty is one-shot.
	if ev.Dirty("2014Q2") {
		t.Fatal("Dirty(2014Q2) still true after the evaluation")
	}
	if res := ev.EvaluateQuarter(context.Background(), "2014Q2", sigs); res.Changed != 0 {
		t.Fatalf("dirty mark not cleared: %+v", res)
	}
}

// A slow pass records a watch_eval_slow warn event; wiring the log's
// OnRecord back into the evaluator must not deadlock on it.
func TestSlowEvalAuditEvent(t *testing.T) {
	ix := NewIndex()
	mustAdd(t, ix, &Watchlist{ID: "a", User: "u", Drugs: []string{"ASPIRIN"}})
	log := audit.NewLog(audit.LogOptions{})
	auditor := &audit.Auditor{Log: log}

	// A fake clock makes every pass take 10ms against a 1ms budget.
	base := time.Unix(1700000000, 0)
	calls := 0
	ev := NewEvaluator(Options{
		Index:   ix,
		Feeds:   NewFeeds(8),
		Auditor: auditor,
		Budget:  time.Millisecond,
		Now: func() time.Time {
			calls++
			return base.Add(time.Duration(calls) * 10 * time.Millisecond)
		},
	})
	log.OnRecord(ev.HandleAuditEvent) // re-entrant wiring

	ev.EvaluateQuarter(context.Background(), "2014Q1", []Signal{sigAW()})
	events := log.Recent(10)
	found := false
	for _, e := range events {
		if e.Rule == "watch_eval_slow" && e.Severity == audit.SevWarn && e.Scope == "2014Q1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no watch_eval_slow event in %+v", events)
	}
}

func TestEvaluatorStats(t *testing.T) {
	ev, _ := testEvaluator(t, &Watchlist{ID: "a", User: "u", Drugs: []string{"ASPIRIN"}})
	ev.EvaluateQuarter(context.Background(), "2014Q1", []Signal{sigAW()})
	st := ev.Stats()
	if st.Evaluations != 1 || st.TrackedQuarters != 1 || st.LastResult.Quarter != "2014Q1" {
		t.Fatalf("stats = %+v", st)
	}
	ev.ResetQuarter("2014Q1")
	if st := ev.Stats(); st.TrackedQuarters != 0 {
		t.Fatalf("ResetQuarter left state: %+v", st)
	}
}
