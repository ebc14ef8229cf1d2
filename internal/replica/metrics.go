package replica

import "maras/internal/obs"

// Metrics instruments the replication layer. All fields are nil-safe
// through the obs registry types; construct with NewMetrics so every
// series exists (at zero) from the first scrape.
type Metrics struct {
	// SyncRounds counts completed anti-entropy rounds (every peer
	// attempted once per round).
	SyncRounds *obs.Counter
	// SyncErrors counts per-peer sync attempts that failed: peer
	// unreachable, bad inventory, a failed snapshot fetch, or a leaf
	// whose label store.CheckLabel rejects.
	SyncErrors *obs.Counter
	// Fetches counts snapshots fetched from peers and installed.
	Fetches *obs.Counter
	// FetchBytes accumulates snapshot bytes fetched from peers.
	FetchBytes *obs.Counter
	// CorruptFetches counts peer snapshot fetches rejected by envelope
	// verification — bytes that never touched disk.
	CorruptFetches *obs.Counter
	// Divergent tracks how many labels the last sync round still
	// needed from peers (0 = converged with every reachable peer).
	Divergent *obs.Gauge
	// PeersUp tracks configured peers whose breaker is closed.
	PeersUp *obs.Gauge
	// SyncSeconds observes the wall time of one full sync round.
	SyncSeconds *obs.Histogram
}

// NewMetrics registers the maras_replica_* families on r and returns
// the bound instruments.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		SyncRounds: r.Counter("maras_replica_sync_rounds_total",
			"Anti-entropy sync rounds completed (all peers attempted)."),
		SyncErrors: r.Counter("maras_replica_sync_errors_total",
			"Per-peer sync attempts that failed (unreachable peer, bad inventory, failed fetch)."),
		Fetches: r.Counter("maras_replica_snapshot_fetches_total",
			"Snapshots fetched from peers and installed locally."),
		FetchBytes: r.Counter("maras_replica_fetch_bytes_total",
			"Snapshot bytes fetched from peers."),
		CorruptFetches: r.Counter("maras_replica_corrupt_fetches_total",
			"Peer snapshot fetches rejected by envelope verification (never installed)."),
		Divergent: r.Gauge("maras_replica_divergent_labels",
			"Labels the last sync round still needed from peers (0 = converged)."),
		PeersUp: r.Gauge("maras_replica_peers_up",
			"Configured peers whose circuit breaker is closed."),
		SyncSeconds: r.Histogram("maras_replica_sync_seconds",
			"Wall time of one full anti-entropy sync round.", obs.DefaultLatencyBuckets),
	}
}
