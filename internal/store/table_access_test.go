package store

import (
	"maras/internal/audit"
	"maras/internal/core"
)

// Test-only accessors for the registry's quarter table, so tests read
// and poke it through one place rather than through its fields.

// evict takes label's row out of the hot window, as loads of other
// quarters would, without counting an eviction. The row keeps its copy.
func evict(reg *Registry, label string) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if w := reg.rows[label]; w != nil {
		w.load = nil
		reg.fitLocked()
	}
}

// heldCopies returns how many decoded copies the table holds, hot or
// retained, local or peer.
func heldCopies(reg *Registry) int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	n := 0
	for _, w := range reg.rows {
		if w.a != nil {
			n++
		}
	}
	return n
}

// cachedQuality returns the quality reports the table holds, by label.
func cachedQuality(reg *Registry) map[string]*audit.QualityReport {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := map[string]*audit.QualityReport{}
	for l, w := range reg.rows {
		if w.q != nil {
			out[l] = w.q
		}
	}
	return out
}

// plantPeerCopy makes a the replica-peer copy label's row holds and id
// the row's file identity.
func plantPeerCopy(reg *Registry, label string, a *core.Analysis, id fileID) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	w := reg.useLocked(label)
	w.a, w.peer, w.id = a, true, id
	reg.fitLocked()
}

// loadedID returns the identity of the file label was last loaded
// from; the zero value when none is recorded.
func loadedID(reg *Registry, label string) fileID {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if w := reg.rows[label]; w != nil {
		return w.id
	}
	return fileID{}
}

// tableCounts returns how many rows are hot, how many hold a decoded
// copy, and how many are hot without one.
func tableCounts(reg *Registry) (hot, held, bare int) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, w := range reg.rows {
		if w.a != nil {
			held++
		}
		if w.load != nil {
			hot++
			if w.a == nil {
				bare++
			}
		}
	}
	return hot, held, bare
}
