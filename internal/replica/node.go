package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/obs"
	"maras/internal/obs/wide"
	"maras/internal/resilience"
	"maras/internal/store"
)

// Span names the replica layer records on active traces.
const (
	SpanSync  = "replica_sync"
	SpanFetch = "replica_fetch"
)

// Defaults for Options fields left zero.
const (
	DefaultInterval      = 30 * time.Second
	DefaultTimeout       = 10 * time.Second
	DefaultMaxFetchBytes = 1 << 30
	maxInventoryBytes    = 1 << 26
)

// Options configures a replica node.
type Options struct {
	// Name identifies this node in its advertised inventory (defaults
	// to the registry directory's base name).
	Name string
	// Peers are the base URLs of the other replicas
	// ("http://replica-b:8080"). Empty means this node only serves the
	// sync endpoints; it never pulls.
	Peers []string
	// Interval is the anti-entropy period. Each round re-arms at
	// interval ±25% and the first round waits a uniformly random
	// fraction of it, so a fleet restarted together spreads out.
	// Zero means DefaultInterval.
	Interval time.Duration
	// Timeout bounds each peer HTTP request (default DefaultTimeout).
	Timeout time.Duration
	// MaxFetchBytes caps one fetched snapshot body (default
	// DefaultMaxFetchBytes); larger responses are rejected unread.
	MaxFetchBytes int64
	// Breaker tunes the per-peer circuit breakers; the zero value
	// takes the resilience defaults.
	Breaker resilience.BreakerConfig
	// Transport overrides the HTTP transport — the chaos bench and
	// tests inject partitions, lag, and byte-flips here. Nil uses
	// http.DefaultTransport.
	Transport http.RoundTripper
	// Metrics, when non-nil, receives the maras_replica_* series.
	Metrics *Metrics
	// Wide, when non-nil, receives one replica_sync wide event per
	// peer attempted per round (route = peer URL).
	Wide *wide.Ring
	// Auditor, when non-nil, records peer breaker transitions and
	// rejected corrupt fetches.
	Auditor *audit.Auditor
	// Logger; nil discards.
	Logger *slog.Logger
	// OnRound, when set, runs after every sync round (Start's loop and
	// explicit SyncOnce calls) with the round's stats — the hook the
	// server uses to mirror peer health onto the readiness probe.
	OnRound func(SyncStats)
}

// Node is one replica: a registry, a scanner over its directory, and
// the sync client state for its configured peers.
type Node struct {
	reg      *store.Registry
	scan     *Scanner
	opts     Options
	client   *http.Client
	breakers *resilience.BreakerSet

	mu      sync.Mutex
	peerInv map[string]*Tree // last verified inventory per peer
}

// NewNode binds a replica node to reg. Nothing syncs until Start (or
// an explicit SyncOnce); the handlers from Mount serve regardless.
func NewNode(reg *store.Registry, opts Options) *Node {
	if opts.Name == "" {
		opts.Name = filepath.Base(reg.Dir())
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.MaxFetchBytes <= 0 {
		opts.MaxFetchBytes = DefaultMaxFetchBytes
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	for i, p := range opts.Peers {
		opts.Peers[i] = strings.TrimSuffix(p, "/")
	}
	n := &Node{
		reg:     reg,
		scan:    NewScanner(reg.Dir()),
		opts:    opts,
		client:  &http.Client{Transport: opts.Transport, Timeout: opts.Timeout},
		peerInv: map[string]*Tree{},
	}
	n.breakers = resilience.NewBreakerSet(opts.Breaker, func(key string, from, to resilience.BreakerState) {
		n.updatePeersUp()
		sev := audit.SevWarn
		if to == resilience.StateClosed {
			sev = audit.SevInfo
		}
		n.opts.Auditor.RecordEvent(audit.Event{
			Rule:     "replica_peer",
			Severity: sev,
			Scope:    key,
			Message:  fmt.Sprintf("peer breaker %s -> %s", from, to),
		})
	})
	n.updatePeersUp()
	return n
}

// Name returns the node's advertised name.
func (n *Node) Name() string { return n.opts.Name }

// Peers returns the configured peer base URLs.
func (n *Node) Peers() []string { return n.opts.Peers }

// updatePeersUp refreshes the peers-up gauge: a peer with no breaker
// yet (never contacted) counts as up.
func (n *Node) updatePeersUp() {
	m := n.opts.Metrics
	if m == nil || m.PeersUp == nil {
		return
	}
	states := n.breakers.States()
	up := 0
	for _, p := range n.opts.Peers {
		if st, ok := states[p]; !ok || st == resilience.StateClosed {
			up++
		}
	}
	m.PeersUp.Set(int64(up))
}

// Start runs the jittered anti-entropy loop until ctx ends. No-op
// without peers.
func (n *Node) Start(ctx context.Context) {
	if len(n.opts.Peers) == 0 {
		return
	}
	go func() {
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		t := time.NewTimer(time.Duration(rng.Int63n(int64(n.opts.Interval))))
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				n.SyncOnce(ctx)
				spread := float64(n.opts.Interval) * 0.25
				t.Reset(time.Duration(float64(n.opts.Interval) - spread + 2*spread*rng.Float64()))
			}
		}
	}()
}

// SyncStats summarizes one anti-entropy round.
type SyncStats struct {
	Peers       int // peers attempted
	Unreachable int // peers skipped (open breaker) or failed outright
	Fetched     int // snapshots installed this round
	Rejected    int // fetches rejected as corrupt (never installed)
	Needed      int // labels still wanted after the round
}

// SyncOnce runs one anti-entropy round against every configured peer:
// fetch the peer's inventory, diff merkle trees, then fetch, verify,
// and atomically install each winning leaf. Failures are per-peer —
// counted, logged, and fed to that peer's breaker — never fatal.
func (n *Node) SyncOnce(ctx context.Context) SyncStats {
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, SpanSync)
	defer span.End()
	stats := SyncStats{Peers: len(n.opts.Peers)}
	// Rescan first: snapshots dropped in by a miner (or installed last
	// round) must be advertised in the local tree before diffing, or
	// this node keeps fetching what it already holds.
	_ = n.reg.Refresh()
	local, err := n.InventoryTree()
	if err != nil {
		span.SetAttr("error", err.Error())
		n.countError()
		n.finishRound(start, span, stats)
		return stats
	}
	for _, peer := range n.opts.Peers {
		ps := n.syncPeer(ctx, peer, local)
		stats.Unreachable += ps.Unreachable
		stats.Fetched += ps.Fetched
		stats.Rejected += ps.Rejected
		stats.Needed += ps.Needed
		if ps.Fetched > 0 {
			// The local inventory moved; rebuild before the next peer
			// so one round never fetches the same label twice.
			if lt, lerr := n.InventoryTree(); lerr == nil {
				local = lt
			}
		}
	}
	n.finishRound(start, span, stats)
	return stats
}

func (n *Node) finishRound(start time.Time, span *obs.Span, stats SyncStats) {
	if m := n.opts.Metrics; m != nil {
		if m.SyncRounds != nil {
			m.SyncRounds.Inc()
		}
		if m.Divergent != nil {
			m.Divergent.Set(int64(stats.Needed))
		}
		if m.SyncSeconds != nil {
			m.SyncSeconds.Observe(time.Since(start).Seconds())
		}
	}
	span.SetInt("fetched", int64(stats.Fetched))
	span.SetInt("needed", int64(stats.Needed))
	if n.opts.OnRound != nil {
		n.opts.OnRound(stats)
	}
}

func (n *Node) countError() {
	if m := n.opts.Metrics; m != nil && m.SyncErrors != nil {
		m.SyncErrors.Inc()
	}
}

// syncPeer runs the inventory-diff-fetch cycle against one peer and
// emits one replica_sync wide event for the attempt.
func (n *Node) syncPeer(ctx context.Context, peer string, local *Tree) SyncStats {
	var stats SyncStats
	start := time.Now()
	status := http.StatusOK
	var fetchedBytes int64
	defer func() {
		n.opts.Wide.Emit(wide.Event{
			Kind: wide.KindReplicaSync, Route: peer, Status: status,
			Duration: time.Since(start), Bytes: fetchedBytes,
			Trace: obs.ActiveSpan(ctx).TraceID(),
		})
	}()
	br := n.breakers.Get(peer)
	if !br.Allow() {
		status = http.StatusServiceUnavailable
		stats.Unreachable = 1
		return stats
	}
	fail := func(err error, what string) SyncStats {
		status = http.StatusBadGateway
		stats.Unreachable = 1
		br.Failure(false)
		n.countError()
		n.opts.Logger.Warn("replica "+what+" failed", "peer", peer, "err", err)
		return stats
	}
	inv, err := n.fetchInventory(ctx, peer)
	if err != nil {
		return fail(err, "inventory fetch")
	}
	remote := BuildTree(inv.Leaves)
	n.mu.Lock()
	n.peerInv[peer] = remote
	n.mu.Unlock()
	// The diff failpoint models inventory-layer faults (mangled
	// inventories, tree-walk bugs) without hand-forging JSON.
	if ferr := resilience.Inject(resilience.FPReplicaDiff); ferr != nil {
		return fail(ferr, "inventory diff")
	}
	need := Diff(local, remote)
	failed := false
	for _, leaf := range need {
		// A label that could name a path outside the store is never
		// fetched, let alone installed.
		if err := store.CheckLabel(leaf.Label); err != nil {
			n.countError()
			n.opts.Logger.Warn("replica peer advertised a bad label", "peer", peer, "err", err)
			continue
		}
		data, err := n.fetchSnapshot(ctx, peer, leaf.Label)
		if err != nil {
			if isCorrupt(err) {
				stats.Rejected++
				if m := n.opts.Metrics; m != nil && m.CorruptFetches != nil {
					m.CorruptFetches.Inc()
				}
				n.opts.Auditor.RecordEvent(audit.Event{
					Rule:     "replica_corrupt",
					Severity: audit.SevWarn,
					Scope:    leaf.Label,
					Message:  fmt.Sprintf("rejected corrupt snapshot from %s: %v", peer, err),
				})
			}
			failed = true
			stats.Needed++
			n.countError()
			n.opts.Logger.Warn("replica snapshot fetch failed", "peer", peer, "quarter", leaf.Label, "err", err)
			continue
		}
		if err := n.reg.InstallBytes(leaf.Label, data); err != nil {
			failed = true
			stats.Needed++
			n.countError()
			n.opts.Logger.Warn("replica snapshot install failed", "peer", peer, "quarter", leaf.Label, "err", err)
			continue
		}
		fetchedBytes += int64(len(data))
		stats.Fetched++
		if m := n.opts.Metrics; m != nil {
			if m.Fetches != nil {
				m.Fetches.Inc()
			}
			if m.FetchBytes != nil {
				m.FetchBytes.Add(int64(len(data)))
			}
		}
		n.opts.Logger.Info("replica snapshot installed",
			"peer", peer, "quarter", leaf.Label, "bytes", len(data))
	}
	if failed {
		status = http.StatusBadGateway
		br.Failure(false)
	} else {
		br.Success()
	}
	return stats
}

func isCorrupt(err error) bool {
	return errors.Is(err, store.ErrCorrupt) ||
		errors.Is(err, store.ErrBadMagic) ||
		errors.Is(err, store.ErrVersion)
}

// InventoryTree scans the local store and builds its merkle tree.
func (n *Node) InventoryTree() (*Tree, error) {
	leaves, err := n.scan.Scan()
	if err != nil {
		return nil, err
	}
	return BuildTree(leaves), nil
}

// Inventory is the advertised inventory payload of /sync/inventory.
type Inventory struct {
	Node   string `json:"node"`
	Root   string `json:"root"`
	Leaves []Leaf `json:"leaves"`
}

func (n *Node) fetchInventory(ctx context.Context, peer string) (*Inventory, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/sync/inventory", nil)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: inventory from %s: %w", peer, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("replica: inventory from %s: HTTP %d", peer, resp.StatusCode)
	}
	inv, err := decodeInventory(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("replica: decoding inventory from %s: %w", peer, err)
	}
	return inv, nil
}

// decodeInventory reads one /sync/inventory payload from a peer,
// reading at most maxInventoryBytes of r.
func decodeInventory(r io.Reader) (*Inventory, error) {
	var inv Inventory
	if err := json.NewDecoder(io.LimitReader(r, maxInventoryBytes)).Decode(&inv); err != nil {
		return nil, err
	}
	return &inv, nil
}

// fetchSnapshot GETs one snapshot from peer and verifies its envelope
// (magic, version, CRC trailer) before returning the bytes: corrupt
// bytes come back as a store.ErrCorrupt-class error, never as data.
func (n *Node) fetchSnapshot(ctx context.Context, peer, label string) ([]byte, error) {
	_, span := obs.StartSpan(ctx, SpanFetch)
	defer span.End()
	span.SetAttr("quarter", label)
	if ferr := resilience.Inject(resilience.FPReplicaFetch); ferr != nil {
		span.SetAttr("error", ferr.Error())
		return nil, fmt.Errorf("replica: fetching %s from %s: %w", label, peer, ferr)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		peer+"/sync/snapshot/"+url.PathEscape(label), nil)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("replica: fetching %s from %s: %w", label, peer, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("replica: fetching %s from %s: HTTP %d", label, peer, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, n.opts.MaxFetchBytes+1))
	if err != nil {
		return nil, fmt.Errorf("replica: reading %s from %s: %w", label, peer, err)
	}
	if int64(len(data)) > n.opts.MaxFetchBytes {
		return nil, fmt.Errorf("replica: snapshot %s from %s exceeds %d bytes", label, peer, n.opts.MaxFetchBytes)
	}
	span.SetInt("bytes", int64(len(data)))
	if err := store.CheckBytes(data); err != nil {
		span.SetAttr("error", err.Error())
		return nil, fmt.Errorf("replica: snapshot %s from %s: %w", label, peer, err)
	}
	return data, nil
}

// PeerHas reports whether any peer's last-known inventory advertises
// label — the gate store-mode routing consults before 404ing a label
// the local disk has never seen.
func (n *Node) PeerHas(label string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, t := range n.peerInv {
		for _, l := range t.Leaves() {
			if l.Label == label {
				return true
			}
		}
	}
	return false
}

// peersWith returns, in configured order, the peers whose last-known
// inventory advertises label.
func (n *Node) peersWith(label string) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for _, p := range n.opts.Peers {
		t := n.peerInv[p]
		if t == nil {
			continue
		}
		for _, l := range t.Leaves() {
			if l.Label == label {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// FetchAnalysis is the read-failover tier LoadResilient reaches
// through store.Registry.SetPeerFetch: fetch label from a peer,
// verify the envelope, and decode entirely in memory — the read path
// writes nothing to disk (the sync loop persists later). Peers that
// advertise the label in their last-known inventory are tried first;
// with none known (cold start, or nobody advertising it) every peer
// is tried. Outcomes feed the same per-peer breakers the sync loop
// uses.
func (n *Node) FetchAnalysis(ctx context.Context, label string) (*core.Analysis, error) {
	candidates := n.peersWith(label)
	if len(candidates) == 0 {
		candidates = n.opts.Peers
	}
	var lastErr error = fmt.Errorf("replica: no peers configured")
	for _, peer := range candidates {
		br := n.breakers.Get(peer)
		if !br.Allow() {
			lastErr = fmt.Errorf("replica: peer %s: %w", peer, resilience.ErrBreakerOpen)
			continue
		}
		data, err := n.fetchSnapshot(ctx, peer, label)
		if err != nil {
			br.Failure(false)
			lastErr = err
			continue
		}
		snap, err := store.Decode(data)
		if err != nil {
			br.Failure(false)
			lastErr = fmt.Errorf("replica: decoding %s from %s: %w", label, peer, err)
			continue
		}
		br.Success()
		return snap.Analysis, nil
	}
	return nil, lastErr
}

// Status is the replica state surfaced on /healthz.
type Status struct {
	Name      string   `json:"name"`
	Peers     int      `json:"peers"`
	PeersDown []string `json:"peers_down,omitempty"`
	Root      string   `json:"root,omitempty"`
}

// CurrentStatus snapshots the node's peer health and local merkle
// root.
func (n *Node) CurrentStatus() Status {
	st := Status{Name: n.opts.Name, Peers: len(n.opts.Peers)}
	states := n.breakers.States()
	for _, p := range n.opts.Peers {
		if s, ok := states[p]; ok && s != resilience.StateClosed {
			st.PeersDown = append(st.PeersDown, p)
		}
	}
	if t, err := n.InventoryTree(); err == nil {
		st.Root = t.RootHex()
	}
	return st
}
