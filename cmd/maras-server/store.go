package main

// The registry-backed route surface. Every quarter the server holds
// is a snapshot in a store.Registry directory: written offline by
// maras-mine -snapshot-out (or by the registry itself) with -store, or
// mined once at startup into a temporary one-quarter directory without
// it. Serving only ever decodes snapshots, through one path:
//
//	/                       the latest quarter's full UI + API
//	/q/{label}/...          any quarter's UI + API (e.g. /q/2014Q2/api/signals)
//	/quarters               human quarters index: quality verdicts + drift vs prev
//	/api/quarters           what is on disk, and which quarter is default
//	/api/timeline/{drugkey} a combination's cross-quarter trajectory
//	/api/quality/{label}    a quarter's ingest-quality report (see internal/audit)
//	/api/drift/{from}/{to}  signal churn between two stored quarters
//	/debug/audit            the audit event timeline (?format=json)
//
// Warm quarters are held in the registry's table, which every quarter
// request consults (a warm request is one LRU hit); there is no
// per-quarter handler state beside it. /metrics exposes the store
// series (load latency, open-quarter gauge, hit/miss/eviction
// counters) next to the HTTP series.

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"

	"maras/internal/audit"
	"maras/internal/knowledge"
	"maras/internal/obs"
	"maras/internal/replica"
	"maras/internal/store"
	"maras/internal/trend"
)

// staleRetryAfter is the Retry-After hint on quarter routes that can
// serve nothing at all (no fresh load, no stale copy): long enough for
// a breaker cooldown to elapse before the client returns.
const staleRetryAfter = "5"

// storeServer is the registry-backed half of the route surface: the
// quarter routing and the cross-quarter handlers. newDeps builds it.
type storeServer struct {
	reg     *store.Registry
	logger  *slog.Logger
	auditor *audit.Auditor
	ready   *obs.Readiness // degraded flag target
	slos    *sloStack      // SLO rollup for the quarters page; may be nil
	// replica, when non-nil, is this node's replication layer: quarter
	// routing consults its peer inventories before 404ing a label the
	// local disk has never seen.
	replica *replica.Node
	// memo holds the drift and timeline bodies of the current trend
	// assembly.
	memo *trendMemo
}

// noteDegradation mirrors the registry's degradation state onto the
// readiness probe after every quarter load, so /readyz flips to
// "degraded" the moment stale serving starts and back once the live
// path recovers.
func (ss *storeServer) noteDegradation() {
	ss.ready.SetDegraded("store", ss.reg.Degraded())
}

// peerHas reports whether a replica peer's last-known inventory
// advertises label.
func (ss *storeServer) peerHas(label string) bool {
	return ss.replica != nil && ss.replica.PeerHas(label)
}

// quarterKey is the request-context key under which serveQuarter hands
// the quarter's *server to the application mux.
type quarterKey struct{}

// quarterApp builds the per-quarter application mux once. Every
// handler renders the quarter serveQuarter put in the request context,
// so one mux serves every quarter and no per-quarter state outlives
// the registry's own table.
func quarterApp() *http.ServeMux {
	mux := http.NewServeMux()
	for pattern, h := range map[string]func(*server, http.ResponseWriter, *http.Request){
		"/":             (*server).handleIndex,
		"/signal/":      (*server).handleSignal,
		"/glyph/":       (*server).handleGlyph,
		"/barchart/":    (*server).handleBarChart,
		"/report/":      (*server).handleReport,
		"/api/signals":  (*server).handleAPISignals,
		"/network.dot":  (*server).handleNetworkDOT,
		"/network.json": (*server).handleNetworkJSON,
	} {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			h(r.Context().Value(quarterKey{}).(*server), w, r)
		})
	}
	return mux
}

// serveQuarter dispatches a request into the application mux over
// label's analysis, taken from the registry on every request (a warm
// quarter is one LRU hit) with graceful degradation: the fresh
// analysis when the live path works, the last-good stale copy or a
// replica peer's verified copy when it does not, and 503 with
// Retry-After — never a 500 — when no tier can answer. Every quarter
// response carries X-Maras-Origin (local|stale|peer); stale responses
// keep the X-Maras-Stale: 1 header for back compatibility.
func (ss *storeServer) serveQuarter(w http.ResponseWriter, r *http.Request, label string, app http.Handler) {
	a, origin, err := ss.reg.LoadResilient(r.Context(), label)
	ss.noteDegradation()
	if err != nil {
		ss.logger.Error("load quarter", "quarter", label, "err", err)
		w.Header().Set("Retry-After", staleRetryAfter)
		http.Error(w, fmt.Sprintf("quarter %s temporarily unavailable, retry later", label),
			http.StatusServiceUnavailable)
		return
	}
	w.Header().Set(store.OriginHeader, string(origin))
	switch origin {
	case store.OriginStale:
		ss.logger.Warn("serving stale quarter", "quarter", label)
		w.Header().Set("X-Maras-Stale", "1")
	case store.OriginPeer:
		ss.logger.Warn("serving quarter from replica peer", "quarter", label)
	}
	s := &server{analysis: a, quarter: label, logger: ss.logger}
	app.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), quarterKey{}, s)))
}

// handleDefaultQuarter serves the whole single-quarter application
// (index, signal pages, glyphs, /api/signals, network exports) for
// the latest quarter in the store.
func (ss *storeServer) handleDefaultQuarter(w http.ResponseWriter, r *http.Request, app http.Handler) {
	label := ss.reg.Latest()
	if label == "" {
		http.Error(w, "store is empty: no quarter snapshots on disk", http.StatusServiceUnavailable)
		return
	}
	ss.serveQuarter(w, r, label, app)
}

// handleQuarterScoped serves /q/{label}/<rest> by dispatching <rest>
// into the application mux over the named quarter.
func (ss *storeServer) handleQuarterScoped(w http.ResponseWriter, r *http.Request, app http.Handler) {
	rest := strings.TrimPrefix(r.URL.Path, "/q/")
	label, sub, _ := strings.Cut(rest, "/")
	if label == "" {
		http.NotFound(w, r)
		return
	}
	// A quarter missing from disk (e.g. quarantined) but held as a
	// last-good stale copy — or advertised by a replica peer — is
	// still servable; only a label nobody has seen is a true 404.
	if !ss.reg.Has(label) && !ss.reg.HasStale(label) && !ss.peerHas(label) {
		http.Error(w, fmt.Sprintf("quarter %q not in store", label), http.StatusNotFound)
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/" + sub
	ss.serveQuarter(w, r2, label, app)
}

// handleQuarters lists what the store can serve.
func (ss *storeServer) handleQuarters(w http.ResponseWriter, r *http.Request) {
	// Rescan first: a miner may have dropped a new quarter in.
	if err := ss.reg.RefreshContext(r.Context()); err != nil {
		ss.logger.Warn("store rescan", "err", err)
	}
	body, err := json.Marshal(struct {
		Default  string   `json:"default"`
		Quarters []string `json:"quarters"`
	}{Default: ss.reg.Latest(), Quarters: ss.reg.Quarters()})
	if err != nil {
		http.Error(w, "internal encode error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// timelinePoint mirrors trend.Point for the JSON API.
type timelinePoint struct {
	Quarter    string  `json:"quarter"`
	Rank       int     `json:"rank"` // 0 = not signaled that quarter
	Score      float64 `json:"score"`
	Support    int     `json:"support"`
	Confidence float64 `json:"confidence"`
}

// handleTimeline serves /api/timeline/{drugkey} where drugkey is the
// canonical combination key ("ASPIRIN+WARFARIN", any case or order) —
// the surveillance question answered across every stored quarter. The
// body is built once per trend assembly (see trendMemo).
func (ss *storeServer) handleTimeline(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/api/timeline/"), "/")
	if raw == "" {
		http.Error(w, "usage: /api/timeline/DRUG+DRUG", http.StatusBadRequest)
		return
	}
	key := knowledge.DrugKey(strings.Split(raw, "+"))
	ta, err := ss.reg.TrendAnalysisContext(r.Context())
	if err != nil {
		ss.logger.Error("timeline", "key", key, "err", err)
		http.Error(w, "timeline unavailable", http.StatusInternalServerError)
		return
	}
	k := memoKey{route: "timeline", a: key}
	e, ok := ss.memo.get(ta, k)
	if !ok {
		traj := ta.Find(key)
		if traj == nil {
			http.Error(w, fmt.Sprintf("combination %q never signaled in %d stored quarters", key, len(ta.Quarters)),
				http.StatusNotFound)
			return
		}
		body, err := timelineJSON(traj)
		if err != nil {
			http.Error(w, "internal encode error", http.StatusInternalServerError)
			return
		}
		e = memoEntry{body: obs.Precompress(body)}
		ss.memo.put(ta, k, e)
	}
	if err := obs.WriteEncoded(w, r, "application/json", e.body); err != nil {
		ss.logger.Warn("timeline write", "err", err)
	}
}

// timelineJSON encodes a trajectory as /api/timeline serves it.
func timelineJSON(traj *trend.Trajectory) ([]byte, error) {
	points := make([]timelinePoint, len(traj.Points))
	for i, p := range traj.Points {
		points[i] = timelinePoint{Quarter: p.Quarter, Rank: p.Rank, Score: p.Score,
			Support: p.Support, Confidence: p.Confidence}
	}
	return json.Marshal(struct {
		Key       string          `json:"key"`
		Drugs     []string        `json:"drugs"`
		Reactions []string        `json:"reactions"`
		Class     trend.Class     `json:"class"`
		EmergedAt string          `json:"emerged_at,omitempty"`
		Points    []timelinePoint `json:"points"`
	}{
		Key: traj.Key, Drugs: traj.Drugs, Reactions: traj.Reactions,
		Class: traj.Classify(), EmergedAt: traj.EmergedAt(), Points: points,
	})
}
