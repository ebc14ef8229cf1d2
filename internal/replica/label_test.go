package replica

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"maras/internal/obs"
	"maras/internal/store"
)

// A peer that advertises a label naming a path outside the store gets
// nothing installed: the leaf is skipped before any fetch, counted as a
// sync error, and no file appears outside (or inside) the directory.
func TestSyncSkipsPathEscapingLabel(t *testing.T) {
	good := t.TempDir()
	writeSnap(t, good, "2014Q1", testAnalysis(t, 0))
	data, err := os.ReadFile(filepath.Join(good, "2014Q1"+store.Ext))
	if err != nil {
		t.Fatal(err)
	}
	var snapshotHits atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/sync/inventory", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Inventory{Node: "evil", Leaves: []Leaf{{Label: "../escape", CRC: 1, Size: int64(len(data))}}})
	})
	mux.HandleFunc("/sync/snapshot/", func(w http.ResponseWriter, r *http.Request) {
		snapshotHits.Add(1)
		w.Write(data)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	base := t.TempDir()
	dir := filepath.Join(base, "store")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	reg, err := store.OpenRegistry(dir, store.RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics(obs.NewRegistry())
	node := NewNode(reg, Options{Name: "b", Peers: []string{srv.URL}, Metrics: m})
	stats := node.SyncOnce(context.Background())
	if stats.Fetched != 0 || snapshotHits.Load() != 0 {
		t.Fatalf("bad leaf fetched: stats %+v, snapshot requests %d", stats, snapshotHits.Load())
	}
	if got := m.SyncErrors.Value(); got != 1 {
		t.Errorf("sync errors = %d, want 1", got)
	}
	for _, d := range []string{base, dir} {
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() != "store" {
				t.Errorf("unexpected %q in %s", e.Name(), d)
			}
		}
	}
	if q := reg.Quarters(); len(q) != 0 || reg.Latest() != "" {
		t.Fatalf("quarters after sync: %v, latest %q", q, reg.Latest())
	}
}

// The snapshot endpoint refuses the same labels the store does.
func TestSnapshotHandlerRejectsBadLabels(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "2014Q1", testAnalysis(t, 0))
	n, _ := serveNode(t, dir, "a")
	h := n.SnapshotHandler()
	for _, label := range []string{"", "..", "../2014Q1", `..\2014Q1`, "x/2014Q1"} {
		req := httptest.NewRequest(http.MethodGet, "/sync/snapshot/x", nil)
		req.URL.Path = "/sync/snapshot/" + label
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("label %q: status %d, want 400", label, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/sync/snapshot/2014Q1", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("good label: status %d", rec.Code)
	}
}
