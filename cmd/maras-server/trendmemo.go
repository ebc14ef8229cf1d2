package main

import (
	"sync"

	"maras/internal/audit"
	"maras/internal/obs"
	"maras/internal/trend"
)

// trendMemo holds the encoded bodies of the routes derived from the
// cross-quarter trend assembly alone (/api/drift and /api/timeline),
// each built, marshalled and gzipped once per assembly instead of once
// per request. It holds the entries of one assembly, the one
// store.Registry.TrendAnalysisContext returns, and drops them all when
// a newer assembly arrives, so it is bounded by what one assembly can
// answer: one entry per stored quarter pair and per signaled
// combination.
type trendMemo struct {
	// latest is the registry's IsLatestTrend: an assembly it rejects is
	// superseded for good, and its fills are discarded. It is called
	// under mu, so that no older assembly can be adopted after a newer
	// one; it must not block (the registry's is one atomic load).
	latest func(*trend.Analysis) bool

	mu      sync.Mutex
	ta      *trend.Analysis
	entries map[memoKey]memoEntry
}

// memoKey names one body: a drift pair (route "drift", a=from, b=to)
// or a timeline (route "timeline", a=canonical drug key).
type memoKey struct{ route, a, b string }

type memoEntry struct {
	body obs.Encoded
	// drift is the report a drift body encodes, recorded on the audit
	// log again on every request as a recomputation would be.
	drift *audit.DriftReport
}

// adoptLocked reports whether ta's entries may be read or written,
// first switching the memo to ta, and dropping every entry of the
// assembly it held, when ta is the registry's latest.
func (m *trendMemo) adoptLocked(ta *trend.Analysis) bool {
	if m.ta == ta {
		return true
	}
	if !m.latest(ta) {
		return false
	}
	m.ta, m.entries = ta, map[memoKey]memoEntry{}
	return true
}

func (m *trendMemo) get(ta *trend.Analysis, k memoKey) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.adoptLocked(ta) {
		return memoEntry{}, false
	}
	e, ok := m.entries[k]
	return e, ok
}

// put stores e as k's body for ta, unless ta has been superseded.
func (m *trendMemo) put(ta *trend.Analysis, k memoKey, e memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.adoptLocked(ta) {
		m.entries[k] = e
	}
}
