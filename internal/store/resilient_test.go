package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"maras/internal/audit"
	"maras/internal/obs"
	"maras/internal/resilience"
)

// resilientRegistry opens a registry over dir with the resilience
// layer on (quarantine included) and fast retry/breaker settings, and
// returns it with its audit log for event assertions.
func resilientRegistry(t *testing.T, dir string) (*Registry, *audit.Log) {
	t.Helper()
	log := audit.NewLog(audit.LogOptions{})
	reg, err := OpenRegistry(dir, RegistryOptions{
		Metrics: obs.NewStoreMetrics(obs.NewRegistry()),
		Auditor: &audit.Auditor{Log: log},
		Resilience: &ResilienceOptions{
			Quarantine: true,
			Retry:      resilience.RetryConfig{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Budget: time.Second},
			Breaker:    resilience.BreakerConfig{FailureThreshold: 2, Cooldown: 50 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, log
}

func hasEvent(log *audit.Log, rule, scope string) bool {
	for _, e := range log.Recent(0) {
		if e.Rule == rule && e.Scope == scope {
			return true
		}
	}
	return false
}

func corruptFile(t *testing.T, path string) {
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

func TestQuarantineThenRecover(t *testing.T) {
	dir := tempStore(t, 2)
	path := filepath.Join(dir, "2014Q1"+Ext)
	corruptFile(t, path)
	reg, log := resilientRegistry(t, dir)

	if _, err := reg.Load("2014Q1"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt load error = %v, want ErrCorrupt", err)
	}
	// The corrupt file is renamed aside and the quarter leaves discovery.
	if _, err := os.Stat(path + QuarantinedExt); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("original snapshot still present: %v", err)
	}
	if reg.Has("2014Q1") {
		t.Fatal("quarantined quarter still discoverable")
	}
	if !hasEvent(log, "store_quarantine", "2014Q1") {
		t.Fatal("no store_quarantine audit event")
	}
	// The healthy sibling is unaffected.
	if _, err := reg.Load("2014Q2"); err != nil {
		t.Fatalf("healthy quarter failed: %v", err)
	}

	// Recover: the operator repairs the quarantined bytes and renames
	// the file back; a rescan re-admits the quarter and loads succeed.
	qdata, err := os.ReadFile(path + QuarantinedExt)
	if err != nil {
		t.Fatal(err)
	}
	qdata[len(qdata)/3] ^= 0x55
	if err := os.WriteFile(path, qdata, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path + QuarantinedExt); err != nil {
		t.Fatal(err)
	}
	if err := reg.Refresh(); err != nil {
		t.Fatal(err)
	}
	if a, err := reg.Load("2014Q1"); err != nil || len(a.Signals) == 0 {
		t.Fatalf("recovered quarter: %v", err)
	}
}

func TestQuarantineOffByDefault(t *testing.T) {
	dir := tempStore(t, 1)
	path := filepath.Join(dir, "2014Q1"+Ext)
	corruptFile(t, path)
	log := audit.NewLog(audit.LogOptions{})
	reg, err := OpenRegistry(dir, RegistryOptions{
		Auditor: &audit.Auditor{Log: log},
		Resilience: &ResilienceOptions{
			Retry: resilience.RetryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Budget: time.Second},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("2014Q1"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("file was moved without Quarantine opt-in: %v", err)
	}
}

func TestRetryRecoversTransientLoad(t *testing.T) {
	t.Cleanup(resilience.DisableAll)
	dir := tempStore(t, 1)
	reg, _ := resilientRegistry(t, dir)
	// One injected transient error: the first attempt fails, the retry
	// succeeds, and the caller never sees the fault.
	if err := resilience.Enable(resilience.FPLoad + "=error*1"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("2014Q1"); err != nil {
		t.Fatalf("retry did not absorb a single transient fault: %v", err)
	}
}

func TestBreakerOpensAndServesStale(t *testing.T) {
	t.Cleanup(resilience.DisableAll)
	dir := tempStore(t, 1)
	reg, log := resilientRegistry(t, dir)
	ctx := context.Background()

	// Warm the quarter (populates the stale cache) then evict it so the
	// next load must hit disk.
	if a, origin, err := reg.LoadResilient(ctx, "2014Q1"); err != nil || origin != OriginLocal || a == nil {
		t.Fatalf("warm load: origin=%v err=%v", origin, err)
	}
	evict(reg, "2014Q1")

	// Every disk attempt now fails; retries exhaust, the breaker trips,
	// and LoadResilient degrades to the last-good copy.
	if err := resilience.Enable(resilience.FPLoad + "=error"); err != nil {
		t.Fatal(err)
	}
	a, origin, err := reg.LoadResilient(ctx, "2014Q1")
	if err != nil || origin != OriginStale || a == nil {
		t.Fatalf("degraded load: origin=%v err=%v", origin, err)
	}
	if !reg.Degraded() {
		t.Fatal("registry does not report degraded while serving stale")
	}
	if !hasEvent(log, "store_degraded", "2014Q1") {
		t.Fatal("no store_degraded audit event")
	}
	// Keep failing until the breaker opens (threshold 2), then verify
	// fail-fast: an open breaker still serves stale.
	reg.LoadResilient(ctx, "2014Q1")
	if st := reg.BreakerStates()["2014Q1"]; st != resilience.StateOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}
	if _, origin, err := reg.LoadResilient(ctx, "2014Q1"); err != nil || origin != OriginStale {
		t.Fatalf("open-breaker load: origin=%v err=%v", origin, err)
	}

	// Fault clears; after the cooldown the half-open probe succeeds,
	// the breaker closes, and serving is fresh again with a recovery
	// event on the log.
	resilience.DisableAll()
	time.Sleep(60 * time.Millisecond)
	if _, origin, err := reg.LoadResilient(ctx, "2014Q1"); err != nil || origin != OriginLocal {
		t.Fatalf("recovered load: origin=%v err=%v", origin, err)
	}
	if st := reg.BreakerStates()["2014Q1"]; st != resilience.StateClosed {
		t.Fatalf("breaker state after recovery = %v", st)
	}
	if reg.Degraded() {
		t.Fatal("registry still degraded after recovery")
	}
	found := false
	for _, e := range log.Recent(0) {
		if e.Rule == "store_degraded" && e.Scope == "2014Q1" && strings.Contains(e.Message, "recovered") {
			found = true
		}
	}
	if !found {
		t.Fatal("no recovery audit event")
	}
}

func TestLoadResilientNoStaleCopyFails(t *testing.T) {
	t.Cleanup(resilience.DisableAll)
	dir := tempStore(t, 1)
	reg, _ := resilientRegistry(t, dir)
	if err := resilience.Enable(resilience.FPLoad + "=error"); err != nil {
		t.Fatal(err)
	}
	if _, origin, err := reg.LoadResilient(context.Background(), "2014Q1"); err == nil || origin != "" {
		t.Fatalf("cold failing quarter served somehow: origin=%v err=%v", origin, err)
	}
}

func TestSweepOrphanedTempFiles(t *testing.T) {
	dir := tempStore(t, 1)
	orphan := filepath.Join(dir, "2014Q1"+Ext+".tmp123456")
	if err := os.WriteFile(orphan, []byte("partial write"), 0o600); err != nil {
		t.Fatal(err)
	}
	log := audit.NewLog(audit.LogOptions{})
	reg, err := OpenRegistry(dir, RegistryOptions{Auditor: &audit.Auditor{Log: log}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan temp file survived startup: %v", err)
	}
	if got := reg.Quarters(); len(got) != 1 || got[0] != "2014Q1" {
		t.Fatalf("quarters = %v", got)
	}
	if !hasEvent(log, "store_tmp_sweep", "store") {
		t.Fatal("no store_tmp_sweep audit event")
	}
}

func TestStaleCacheBounded(t *testing.T) {
	dir := tempStore(t, 1)
	log := audit.NewLog(audit.LogOptions{})
	reg, err := OpenRegistry(dir, RegistryOptions{
		Auditor:    &audit.Auditor{Log: log},
		Resilience: &ResilienceOptions{StaleCap: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mint extra quarters beyond the stale cap.
	a := quarterAnalysis(t, 8)
	for i := 2; i <= 4; i++ {
		if err := reg.Save(fmt.Sprintf("2014Q%d", i), a); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, l := range []string{"2014Q1", "2014Q2", "2014Q3", "2014Q4"} {
		if _, _, err := reg.LoadResilient(ctx, l); err != nil {
			t.Fatal(err)
		}
	}
	n := heldCopies(reg)
	if n != 2 {
		t.Fatalf("stale cache holds %d entries, cap 2", n)
	}
}
