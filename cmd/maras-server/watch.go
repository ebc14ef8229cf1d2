package main

// Watchlist subscription & alerting endpoints (internal/watch):
//
//	POST   /api/watchlists          create a watchlist (201; 400 on
//	                                validation failure, 409 over the
//	                                per-user cap)
//	GET    /api/watchlists?user=U   list a user's watchlists
//	GET    /api/watchlists/{id}     fetch one watchlist
//	DELETE /api/watchlists/{id}     remove it (204; 404 unknown)
//	GET    /api/alerts/{user}       the user's alert feed; ?since=SEQ
//	                                resumes after a cursor, ?n= caps
//	                                the batch; next_since in the
//	                                response is the next cursor value
//	GET    /api/watch/stats         index/feed/evaluator counters
//
// Evaluation is event-driven: every quarter is evaluated when the
// registry first loads its bytes (store.RegistryOptions.OnLoad) — the
// mining server's startup quarter included, since it is loaded through
// the same registry — and again on a later cold load of the same bytes
// (re-decode or promotion) only while a drift event has it marked
// dirty (store.RegistryOptions.Dirty); audit drift events reach the
// evaluator through audit.Log.OnRecord. Watchlists persist
// to a snapshot file (watch.SaveFile) on every mutation.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/knowledge"
	"maras/internal/obs"
	"maras/internal/obs/wide"
	"maras/internal/types"
	"maras/internal/watch"
)

// maxWatchlistBody bounds a POST /api/watchlists body; a valid list
// (two bounded term sets plus thresholds) is well under this.
const maxWatchlistBody = 64 << 10

// watchConfig carries the -watch-* flags into newWatchStack.
type watchConfig struct {
	file    string // "" = in-memory only
	userCap int
	feedCap int
	budget  time.Duration
}

// watchStack bundles the watch subsystem as wired into the server:
// index, feeds, evaluator, metrics, persistence, and the known-drug
// vocabulary used to validate new lists.
type watchStack struct {
	ix     *watch.Index
	feeds  *watch.Feeds
	ev     *watch.Evaluator
	met    *watch.Metrics
	logger *slog.Logger

	file    string
	userCap int

	// mu serializes mutations (create/delete + persist + ID counter).
	mu     sync.Mutex
	nextID int

	// drugMu guards drugs, the union of drug names seen in loaded
	// quarters. While empty (no quarter loaded yet) drug validation is
	// skipped; once populated, creating a list watching a drug the
	// store has never seen is a 400.
	drugMu sync.RWMutex
	drugs  map[string]bool
}

// newWatchStack loads any persisted watchlists and wires the
// evaluator. auditor may be nil (no slow-eval events); reg may be nil
// (no metrics); events may be nil (no wide events per evaluation).
func newWatchStack(cfg watchConfig, kb *knowledge.Base, reg *obs.Registry, auditor *audit.Auditor, logger *slog.Logger, events *wide.Ring) (*watchStack, error) {
	ws := &watchStack{
		ix:      watch.NewIndex(),
		feeds:   watch.NewFeeds(cfg.feedCap),
		met:     watch.NewMetrics(reg),
		logger:  logger,
		file:    cfg.file,
		userCap: cfg.userCap,
		drugs:   map[string]bool{},
	}
	if cfg.file != "" {
		lists, err := watch.LoadFile(cfg.file)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// First boot: nothing persisted yet.
		case err != nil:
			return nil, fmt.Errorf("load watchlists: %w", err)
		default:
			for _, w := range lists {
				if err := ws.ix.Add(w); err != nil {
					return nil, fmt.Errorf("load watchlists: %w", err)
				}
				if n, ok := watchIDSeq(w.ID); ok && n > ws.nextID {
					ws.nextID = n
				}
			}
		}
	}
	ws.ev = watch.NewEvaluator(watch.Options{
		Index:     ws.ix,
		Feeds:     ws.feeds,
		Knowledge: kb,
		Metrics:   ws.met,
		Auditor:   auditor,
		Budget:    cfg.budget,
		Wide:      events,
	})
	ws.met.SyncIndex(ws.ix.Stats())
	return ws, nil
}

// watchIDSeq parses the numeric suffix of a generated "wl-N" ID so
// the counter resumes past persisted lists.
func watchIDSeq(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "wl-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// register mounts the watch routes behind the shared middleware/
// bulkhead wrapper. All the JSON surfaces negotiate gzip — alert
// feeds, watchlist listings, and the stats dump are repetitive JSON
// that compresses an order of magnitude for polling clients. (POST
// and DELETE responses are tiny; wrapping the whole route is still
// correct because GzipHandler only engages per-request on
// Accept-Encoding.)
func (ws *watchStack) register(mux *http.ServeMux, mw *obs.HTTPMetrics, app func(http.HandlerFunc) http.Handler) {
	mw.Handle(mux, "/api/watchlists", obs.GzipHandler(app(ws.handleWatchlists)))
	mw.Handle(mux, "/api/watchlists/", obs.GzipHandler(app(ws.handleWatchlistByID)))
	mw.Handle(mux, "/api/alerts/", obs.GzipHandler(app(ws.handleAlerts)))
	mw.Handle(mux, "/api/watch/stats", obs.GzipHandler(app(ws.handleWatchStats)))
}

// onQuarterLoaded is the store registry's OnLoad hook: the first load
// of each distinct quarter file, and every cold load of a dirty
// quarter, refreshes the drug vocabulary and runs a watch evaluation.
func (ws *watchStack) onQuarterLoaded(ctx context.Context, label string, a *core.Analysis) {
	ws.noteDrugs(a)
	res := ws.ev.EvaluateAnalysis(ctx, label, a)
	ws.logger.Info("watch evaluation", "quarter", label, "signals", res.Signals,
		"changed", res.Changed, "alerts", res.Alerts,
		"duration_ms", fmt.Sprintf("%.2f", res.DurationMS))
}

// noteDrugs unions the analysis' drug vocabulary into the known-drug
// set used to validate new watchlists.
func (ws *watchStack) noteDrugs(a *core.Analysis) {
	dict := a.Dict()
	if dict == nil {
		return
	}
	ws.drugMu.Lock()
	for i := 0; i < dict.Len(); i++ {
		it := types.Item(i)
		if !dict.IsDrug(it) {
			continue
		}
		// A decoded quarter's names are substrings of one backing
		// string; clone the new ones so this set, which outlives the
		// quarter, does not pin it.
		if name := strings.ToUpper(dict.Name(it)); !ws.drugs[name] {
			ws.drugs[strings.Clone(name)] = true
		}
	}
	ws.drugMu.Unlock()
}

// unknownDrug returns the first watched drug absent from the known
// vocabulary ("" when all pass, or when no quarter has populated the
// vocabulary yet).
func (ws *watchStack) unknownDrug(drugs []string) string {
	ws.drugMu.RLock()
	defer ws.drugMu.RUnlock()
	if len(ws.drugs) == 0 {
		return ""
	}
	for _, d := range drugs {
		if !ws.drugs[d] {
			return d
		}
	}
	return ""
}

// persistLocked snapshots the index to the watch file. Best-effort:
// the in-memory state is already live, so a write failure is logged
// and surfaced to operators rather than failing the request.
// Caller holds ws.mu.
func (ws *watchStack) persistLocked() {
	if ws.file == "" {
		return
	}
	if err := watch.SaveFile(ws.file, ws.ix.All()); err != nil {
		ws.logger.Error("persist watchlists", "file", ws.file, "err", err)
	}
}

func (ws *watchStack) writeJSON(w http.ResponseWriter, status int, what string, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		ws.logger.Error("watch encode", "what", what, "err", err)
		http.Error(w, "internal encode error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func (ws *watchStack) handleWatchlists(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		ws.createWatchlist(w, r)
	case http.MethodGet:
		ws.listWatchlists(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (ws *watchStack) createWatchlist(w http.ResponseWriter, r *http.Request) {
	var wl watch.Watchlist
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWatchlistBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wl); err != nil {
		http.Error(w, "bad watchlist JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Server-assigned fields win over anything the client sent.
	wl.ID = ""
	wl.CreatedAt = time.Now().UTC()
	if err := wl.Normalize(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if d := ws.unknownDrug(wl.Drugs); d != "" {
		http.Error(w, fmt.Sprintf("unknown drug %q: not present in any loaded quarter", d),
			http.StatusBadRequest)
		return
	}
	obs.ActiveSpan(r.Context()).SetAttr("user", wl.User)

	ws.mu.Lock()
	if ws.ix.UserCount(wl.User) >= ws.userCap {
		ws.mu.Unlock()
		http.Error(w, fmt.Sprintf("user %q is at the watchlist cap (%d)", wl.User, ws.userCap),
			http.StatusConflict)
		return
	}
	ws.nextID++
	wl.ID = "wl-" + strconv.Itoa(ws.nextID)
	if err := ws.ix.Add(&wl); err != nil {
		ws.mu.Unlock()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ws.persistLocked()
	ws.mu.Unlock()

	ws.met.SyncIndex(ws.ix.Stats())
	ws.logger.Info("watchlist created", "id", wl.ID, "user", wl.User,
		"drugs", len(wl.Drugs), "reactions", len(wl.Reactions))
	ws.writeJSON(w, http.StatusCreated, "watchlist", &wl)
}

func (ws *watchStack) listWatchlists(w http.ResponseWriter, r *http.Request) {
	user := strings.TrimSpace(r.URL.Query().Get("user"))
	if user == "" {
		http.Error(w, "usage: /api/watchlists?user=USER", http.StatusBadRequest)
		return
	}
	obs.ActiveSpan(r.Context()).SetAttr("user", user)
	lists := ws.ix.ByUser(user)
	ws.writeJSON(w, http.StatusOK, "watchlists", struct {
		User       string             `json:"user"`
		Watchlists []*watch.Watchlist `json:"watchlists"`
	}{User: user, Watchlists: lists})
}

func (ws *watchStack) handleWatchlistByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/api/watchlists/"), "/")
	if id == "" || strings.Contains(id, "/") {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet:
		wl, ok := ws.ix.Get(id)
		if !ok {
			http.NotFound(w, r)
			return
		}
		ws.writeJSON(w, http.StatusOK, "watchlist", wl)
	case http.MethodDelete:
		ws.mu.Lock()
		removed := ws.ix.Remove(id)
		if removed {
			ws.persistLocked()
		}
		ws.mu.Unlock()
		if !removed {
			http.NotFound(w, r)
			return
		}
		ws.met.SyncIndex(ws.ix.Stats())
		ws.logger.Info("watchlist deleted", "id", id)
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleAlerts serves /api/alerts/{user}?since=SEQ&n=N: the user's
// retained alerts after the cursor, oldest first. next_since echoes
// the highest sequence returned (or the request cursor when nothing
// new), so clients poll with ?since=<next_since>.
func (ws *watchStack) handleAlerts(w http.ResponseWriter, r *http.Request) {
	user := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/api/alerts/"), "/")
	if user == "" || strings.Contains(user, "/") {
		http.Error(w, "usage: /api/alerts/USER?since=SEQ", http.StatusBadRequest)
		return
	}
	obs.ActiveSpan(r.Context()).SetAttr("user", user)
	var since uint64
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			http.Error(w, "since must be a non-negative integer", http.StatusBadRequest)
			return
		}
		since = v
	}
	n := 0
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	alerts := ws.feeds.Since(user, since, n)
	next := since
	if len(alerts) > 0 {
		next = alerts[len(alerts)-1].Seq
	}
	if alerts == nil {
		alerts = []watch.Alert{}
	}
	ws.writeJSON(w, http.StatusOK, "alerts", struct {
		User      string        `json:"user"`
		Since     uint64        `json:"since"`
		NextSince uint64        `json:"next_since"`
		Alerts    []watch.Alert `json:"alerts"`
	}{User: user, Since: since, NextSince: next, Alerts: alerts})
}

func (ws *watchStack) handleWatchStats(w http.ResponseWriter, r *http.Request) {
	ws.writeJSON(w, http.StatusOK, "watch stats", struct {
		Index watch.IndexStats `json:"index"`
		Feeds watch.FeedStats  `json:"feeds"`
		Eval  watch.EvalStats  `json:"eval"`
	}{Index: ws.ix.Stats(), Feeds: ws.feeds.Stats(), Eval: ws.ev.Stats()})
}
