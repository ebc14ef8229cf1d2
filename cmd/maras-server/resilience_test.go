package main

// Server-level fault-tolerance tests: the bulkhead shedding under
// saturation, graceful degradation to stale snapshots with the
// /readyz flip, quarantine of a corrupt snapshot observed through the
// HTTP surface, and an env-armed chaos smoke for CI.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"maras/internal/audit"
	"maras/internal/obs"
	"maras/internal/replica"
	"maras/internal/resilience"
	"maras/internal/store"
)

// flipByte corrupts a snapshot in place so decode fails its checksum.
func flipByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x55
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServerShedsWhenSaturated holds the only bulkhead slot with a
// request whose snapshot load is slowed by a failpoint, then verifies
// the next request is shed: 503, Retry-After, and the shed counter
// moving — while /healthz (outside the bulkhead) still answers.
func TestServerShedsWhenSaturated(t *testing.T) {
	t.Cleanup(resilience.DisableAll)
	h, d := storeHandler(t, tempStoreDir(t, 1), "-max-inflight", "1", "-shed-queue", "0")
	reg := d.metrics
	if err := resilience.Enable(resilience.FPLoad + "=delay(750ms)"); err != nil {
		t.Fatal(err)
	}

	slow := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/signals", nil))
		slow <- rec
	}()
	// Wait until the slow request holds the slot before overloading.
	inflight := reg.Gauge("maras_bulkhead_inflight",
		"Requests currently executing inside the bulkhead.")
	for deadline := time.Now().Add(5 * time.Second); inflight.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("slow request never entered the bulkhead")
		}
		time.Sleep(time.Millisecond)
	}

	rec := getMux(t, h, "/api/signals")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated status = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want the bulkhead default \"1\"", ra)
	}
	if !strings.Contains(rec.Body.String(), "overloaded") {
		t.Fatalf("shed body = %q", rec.Body.String())
	}
	shedTotal := reg.Counter("maras_shed_total", "Requests shed by the bulkhead, by reason.",
		obs.Label{Key: "reason", Value: "queue_full"})
	if shedTotal.Value() == 0 {
		t.Fatal("maras_shed_total{reason=queue_full} did not move")
	}

	// Operational endpoints bypass the bulkhead entirely.
	if rec := getMux(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz under saturation = %d", rec.Code)
	}

	if rec := <-slow; rec.Code != http.StatusOK {
		t.Fatalf("slow (admitted) request status = %d", rec.Code)
	}
}

// TestServerServesStaleWhenLoadFails drives the degradation loop
// through the HTTP surface: a warmed quarter, evicted from the LRU,
// whose disk path then starts failing is served from the last-good
// copy with X-Maras-Origin: stale, the readiness probe reports
// "degraded" (still 200 — the load balancer keeps routing), and a
// fresh load clears both.
func TestServerServesStaleWhenLoadFails(t *testing.T) {
	t.Cleanup(resilience.DisableAll)
	h, d := storeHandler(t, tempStoreDir(t, store.DefaultMaxOpen+1))

	// Warm: fresh serve populates the last-good cache and carries the
	// local serving origin.
	rec := getMux(t, h, "/api/signals")
	if rec.Code != http.StatusOK || rec.Header().Get(store.OriginHeader) != string(store.OriginLocal) {
		t.Fatalf("warm request: status=%d origin=%q", rec.Code, rec.Header().Get(store.OriginHeader))
	}

	// Evict the default quarter through the LRU by touching every other
	// quarter, so the next request must hit disk; then make every disk
	// read fail.
	latest := d.ss.reg.Latest()
	for _, label := range d.ss.reg.Quarters() {
		if label == latest {
			continue
		}
		if rec := getMux(t, h, "/q/"+label+"/api/signals"); rec.Code != http.StatusOK {
			t.Fatalf("touch %s: status %d", label, rec.Code)
		}
	}
	if n := d.ss.reg.OpenCount(); n != store.DefaultMaxOpen {
		t.Fatalf("open quarters = %d, want %d", n, store.DefaultMaxOpen)
	}
	if err := resilience.Enable(resilience.FPLoad + "=error"); err != nil {
		t.Fatal(err)
	}

	rec = getMux(t, h, "/api/signals")
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded request status = %d, want 200 from stale copy", rec.Code)
	}
	if got := rec.Header().Get(store.OriginHeader); got != string(store.OriginStale) {
		t.Fatalf("degraded response origin = %q, want %q", got, store.OriginStale)
	}
	if rec.Header().Get("X-Maras-Stale") != "1" {
		t.Fatal("stale response missing back-compat X-Maras-Stale: 1")
	}
	rec = getMux(t, h, "/readyz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"degraded"`) {
		t.Fatalf("readyz while degraded: status=%d body=%s", rec.Code, rec.Body.String())
	}
	if rec := getMux(t, h, "/healthz"); !strings.Contains(rec.Body.String(), `"degraded":true`) {
		t.Fatalf("healthz missing degraded flag: %s", rec.Body.String())
	}

	// Fault clears: serving turns fresh again and the probe recovers.
	resilience.DisableAll()
	rec = getMux(t, h, "/api/signals")
	if rec.Code != http.StatusOK || rec.Header().Get(store.OriginHeader) != string(store.OriginLocal) {
		t.Fatalf("recovered request: status=%d origin=%q", rec.Code, rec.Header().Get(store.OriginHeader))
	}
	rec = getMux(t, h, "/readyz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ready"`) {
		t.Fatalf("readyz after recovery: status=%d body=%s", rec.Code, rec.Body.String())
	}
}

// TestServerQuarantinesCorruptQuarter serves a store holding one
// corrupt snapshot: the quarter route answers 503 + Retry-After (never
// 500), the file is quarantined aside with an audit event, and the
// healthy sibling keeps serving.
func TestServerQuarantinesCorruptQuarter(t *testing.T) {
	dir := tempStoreDir(t, 2)
	path := filepath.Join(dir, "2014Q1"+store.Ext)
	flipByte(t, path)
	h, d := storeHandler(t, dir)

	rec := getMux(t, h, "/q/2014Q1/api/signals")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("corrupt quarter status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if _, err := os.Stat(path + store.QuarantinedExt); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	found := false
	for _, e := range d.auditor.Log.Recent(0) {
		if e.Rule == "store_quarantine" && e.Scope == "2014Q1" && e.Severity == audit.SevFail {
			found = true
		}
	}
	if !found {
		t.Fatal("no store_quarantine audit event")
	}

	// The healthy sibling is untouched; the quarantined quarter (no
	// stale copy was ever cached) now 404s instead of erroring.
	if rec := getMux(t, h, "/q/2014Q2/api/signals"); rec.Code != http.StatusOK {
		t.Fatalf("healthy quarter status = %d", rec.Code)
	}
	if rec := getMux(t, h, "/q/2014Q1/api/signals"); rec.Code != http.StatusNotFound {
		t.Fatalf("quarantined quarter status = %d, want 404", rec.Code)
	}
}

// TestServerFailsOverToPeer exercises the deepest rung of the
// degradation ladder through the HTTP surface: the local snapshot is
// corrupt (quarantined on first touch) and no stale copy exists, so
// the quarter is answered by proxying from a replica peer — 200 with
// X-Maras-Origin: peer — and the cached peer copy keeps that label on
// re-serves.
func TestServerFailsOverToPeer(t *testing.T) {
	dirA := tempStoreDir(t, 1)
	dirB := tempStoreDir(t, 1)
	flipByte(t, filepath.Join(dirA, "2014Q1"+store.Ext))

	// Peer B: a healthy replica serving the sync endpoints.
	regB, err := store.OpenRegistry(dirB, store.RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nodeB := replica.NewNode(regB, replica.Options{Name: "b"})
	peerMux := http.NewServeMux()
	nodeB.Mount(peerMux)
	srvB := httptest.NewServer(peerMux)
	defer srvB.Close()

	// A's anti-entropy loop is not started, so the only way to 2014Q1
	// is the read-failover path.
	h, _ := storeHandler(t, dirA, "-peers", srvB.URL)

	// First touch: local decode fails (quarantining the file), no stale
	// copy exists, and the peer tier answers.
	rec := getMux(t, h, "/q/2014Q1/api/signals")
	if rec.Code != http.StatusOK {
		t.Fatalf("peer-failover status = %d, want 200; body=%s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(store.OriginHeader); got != string(store.OriginPeer) {
		t.Fatalf("failover origin = %q, want %q", got, store.OriginPeer)
	}
	if _, err := os.Stat(filepath.Join(dirA, "2014Q1"+store.Ext+store.QuarantinedExt)); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}

	// Re-serve: the cached copy came from a peer and stays labeled so.
	rec = getMux(t, h, "/q/2014Q1/api/signals")
	if rec.Code != http.StatusOK || rec.Header().Get(store.OriginHeader) != string(store.OriginPeer) {
		t.Fatalf("cached failover: status=%d origin=%q", rec.Code, rec.Header().Get(store.OriginHeader))
	}
}

// TestServerChaosFromEnv is the CI chaos smoke: when MARAS_FAILPOINTS
// is set (e.g. "store/decode=error*1;store/load=delay(20ms,0.2)") it
// arms the spec exactly as the binaries do and hammers the quarter
// routes, asserting the acceptance invariant — never a 500; every
// answer is fresh, stale-marked, 503 + Retry-After, or a clean 404
// after quarantine. Skipped when the variable is unset.
func TestServerChaosFromEnv(t *testing.T) {
	if os.Getenv(resilience.FailpointEnv) == "" {
		t.Skip("set " + resilience.FailpointEnv + " to run the chaos smoke")
	}
	t.Cleanup(resilience.DisableAll)
	resilience.Seed(1)
	if _, err := resilience.EnableFromEnv(); err != nil {
		t.Fatal(err)
	}
	h, _ := storeHandler(t, tempStoreDir(t, 2))
	paths := []string{"/api/signals", "/q/2014Q1/api/signals", "/q/2014Q2/api/signals", "/api/quarters"}
	for i := 0; i < 40; i++ {
		p := paths[i%len(paths)]
		rec := getMux(t, h, p)
		switch {
		case rec.Code < 500:
		case rec.Code == http.StatusServiceUnavailable:
			if rec.Header().Get("Retry-After") == "" {
				t.Fatalf("%s: 503 without Retry-After", p)
			}
		default:
			t.Fatalf("%s request %d: status %d — the fault leaked as a server error", p, i, rec.Code)
		}
	}
}
