package replica

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"maras/internal/store"
)

// InventoryHandler serves GET /sync/inventory: the node's name, its
// merkle root, and the label-sorted leaf set. Exposed individually
// (alongside SnapshotHandler) so callers can wrap the endpoints with
// per-route metrics or gzip before mounting; Mount is the no-frills
// variant.
func (n *Node) InventoryHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t, err := n.InventoryTree()
		if err != nil {
			http.Error(w, "inventory scan failed", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(Inventory{Node: n.opts.Name, Root: t.RootHex(), Leaves: t.Leaves()})
	})
}

// SnapshotHandler serves GET /sync/snapshot/{label}: the raw snapshot
// bytes for one quarter. Fetchers verify the CRC trailer themselves,
// so the handler is a plain file serve behind a traversal guard.
func (n *Node) SnapshotHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		label := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/sync/snapshot/"), "/")
		if store.CheckLabel(label) != nil {
			http.Error(w, "bad label", http.StatusBadRequest)
			return
		}
		if !n.reg.Has(label) {
			http.Error(w, fmt.Sprintf("label %q not in store", label), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		http.ServeFile(w, r, n.reg.Path(label))
	})
}

// Mount registers both sync endpoints on mux. Callers mount them
// OUTSIDE the bulkhead: a saturated node must keep feeding its peers,
// or one hot replica degrades the whole set.
func (n *Node) Mount(mux *http.ServeMux) {
	mux.Handle("/sync/inventory", n.InventoryHandler())
	mux.Handle("/sync/snapshot/", n.SnapshotHandler())
}
