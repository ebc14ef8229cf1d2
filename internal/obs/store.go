package obs

// StoreMetrics instruments the snapshot store (package store): how
// long snapshot loads take, how many quarters are hot, and how the
// registry's hot window is behaving. All fields are nil-safe through
// the usual registry types; construct with NewStoreMetrics so the
// series exist (at zero) from the first scrape.
type StoreMetrics struct {
	// LoadSeconds observes the wall time of each snapshot load from
	// disk (decode + rehydrate).
	LoadSeconds *Histogram
	// OpenQuarters tracks the number of hot quarters: those whose
	// loads are served as LRU hits.
	OpenQuarters *Gauge
	// Hits counts registry loads served from an already-open quarter.
	Hits *Counter
	// Misses counts registry loads that had to read a snapshot file.
	Misses *Counter
	// Evictions counts quarters that left the registry's hot window.
	Evictions *Counter
	// BytesRead accumulates snapshot bytes read from disk.
	BytesRead *Counter
	// Promotions counts LRU misses answered by promoting the quarter's
	// retained last-good copy because its file was unchanged, instead
	// of decoding the file again.
	Promotions *Counter
	// Retries counts extra load attempts taken by the resilience
	// layer's transient-failure retry (attempts beyond the first).
	Retries *Counter
	// Quarantined counts corrupt snapshots renamed aside.
	Quarantined *Counter
	// StaleServes counts loads answered from the last-good stale
	// cache because the live load failed.
	StaleServes *Counter
	// PeerServes counts loads answered by a replica peer (fetched or
	// peer-cached) after the local and stale tiers both failed.
	PeerServes *Counter
	// BreakersOpen tracks how many per-quarter load breakers are
	// currently not closed (open or half-open).
	BreakersOpen *Gauge
}

// NewStoreMetrics registers the store metric families on r and
// returns the bound instruments.
func NewStoreMetrics(r *Registry) *StoreMetrics {
	return &StoreMetrics{
		LoadSeconds: r.Histogram("maras_store_snapshot_load_seconds",
			"Wall time to load one quarter snapshot from disk.", DefaultLatencyBuckets),
		OpenQuarters: r.Gauge("maras_store_open_quarters",
			"Quarters currently open (resident) in the snapshot registry."),
		Hits: r.Counter("maras_store_cache_hits_total",
			"Registry loads served from an already-open quarter."),
		Misses: r.Counter("maras_store_cache_misses_total",
			"Registry loads that read a snapshot file from disk."),
		Evictions: r.Counter("maras_store_evictions_total",
			"Quarters evicted by the open-quarter LRU."),
		BytesRead: r.Counter("maras_store_snapshot_bytes_read_total",
			"Snapshot bytes read from disk."),
		Promotions: r.Counter("maras_store_promotions_total",
			"LRU misses served by promoting the retained last-good copy of an unchanged snapshot file."),
		Retries: r.Counter("maras_store_load_retries_total",
			"Extra snapshot load attempts taken after transient failures."),
		Quarantined: r.Counter("maras_store_quarantined_total",
			"Corrupt snapshots quarantined (renamed aside)."),
		StaleServes: r.Counter("maras_store_stale_serves_total",
			"Loads served from the last-good stale cache after a live-load failure."),
		PeerServes: r.Counter("maras_store_peer_serves_total",
			"Loads answered by a replica peer after the local and stale tiers failed."),
		BreakersOpen: r.Gauge("maras_store_breakers_open",
			"Per-quarter load circuit breakers currently open or half-open."),
	}
}
