package store

// Tests for the primitives the replica layer builds on: envelope
// verification without a full decode (CheckBytes), the cheap manifest
// read the inventory scanner uses (ReadManifest), verified atomic
// installs of peer bytes (InstallBytes), and the peer rung of
// LoadResilient's degradation ladder (SetPeerFetch).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"maras/internal/core"
	"maras/internal/resilience"
)

func snapshotBytes(t *testing.T, label string) []byte {
	t.Helper()
	dir := t.TempDir()
	if err := WriteFile(filepath.Join(dir, label+Ext), label, quarterAnalysis(t, 8)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, label+Ext))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCheckBytes(t *testing.T) {
	good := snapshotBytes(t, "2014Q1")
	if err := CheckBytes(good); err != nil {
		t.Fatalf("good bytes rejected: %v", err)
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x55
	if err := CheckBytes(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: err = %v, want ErrCorrupt", err)
	}

	if err := CheckBytes([]byte("XXXX not a snapshot")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: err = %v, want ErrBadMagic", err)
	}
	if err := CheckBytes(good[:6]); !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: err = %v, want a corrupt-class error", err)
	}
}

func TestReadManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "2014Q1"+Ext)
	if err := WriteFile(path, "2014Q1", quarterAnalysis(t, 8)); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Label != "2014Q1" {
		t.Fatalf("manifest label = %q", m.Label)
	}
	if m.SavedAt.IsZero() {
		t.Fatal("manifest SavedAt is zero")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size != fi.Size() {
		t.Fatalf("manifest size = %d, stat = %d", m.Size, fi.Size())
	}
	// The CRC in the manifest is the file's actual trailer.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBytes(data); err != nil {
		t.Fatal(err)
	}
	trailer := uint32(data[len(data)-4]) | uint32(data[len(data)-3])<<8 |
		uint32(data[len(data)-2])<<16 | uint32(data[len(data)-1])<<24
	if m.CRC != trailer {
		t.Fatalf("manifest CRC = %#x, trailer = %#x", m.CRC, trailer)
	}

	if _, err := ReadManifest(filepath.Join(dir, "absent"+Ext)); err == nil {
		t.Fatal("manifest of a missing file succeeded")
	}
	if err := os.WriteFile(filepath.Join(dir, "short"+Ext), []byte("tiny"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(filepath.Join(dir, "short"+Ext)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short file: err = %v, want ErrCorrupt", err)
	}
}

func TestInstallBytes(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir(), RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := snapshotBytes(t, "2014Q3")

	if err := reg.InstallBytes("2014Q3", good); err != nil {
		t.Fatal(err)
	}
	if !reg.Has("2014Q3") {
		t.Fatal("installed quarter not discoverable")
	}
	if got := reg.Quarters(); len(got) != 1 || got[0] != "2014Q3" {
		t.Fatalf("quarters = %v", got)
	}
	if a, err := reg.Load("2014Q3"); err != nil || len(a.Signals) == 0 {
		t.Fatalf("installed quarter unreadable: %v", err)
	}

	// Corrupt bytes never reach disk: the install fails up front and
	// leaves no file behind.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x55
	if err := reg.InstallBytes("2015Q1", bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt install: err = %v, want ErrCorrupt", err)
	}
	if reg.Has("2015Q1") {
		t.Fatal("corrupt install became discoverable")
	}
	if _, err := os.Stat(reg.Path("2015Q1")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt install left a file: %v", err)
	}
}

// TestLoadResilientPeerTier exercises the third rung of the ladder
// with a stubbed peer fetcher: local load fails with no stale copy, so
// the peer answers; the cached peer copy keeps the peer origin on
// re-serves; and a recovered local load flips back to local.
func TestLoadResilientPeerTier(t *testing.T) {
	t.Cleanup(resilience.DisableAll)
	dir := tempStore(t, 1)
	reg, log := resilientRegistry(t, dir)
	ctx := context.Background()

	peerCopy := quarterAnalysis(t, 8)
	calls := 0
	reg.SetPeerFetch(func(ctx context.Context, label string) (*core.Analysis, error) {
		calls++
		if label != "2014Q1" {
			return nil, fmt.Errorf("peer has no %s", label)
		}
		return peerCopy, nil
	})

	// Cold failure (nothing cached): the peer tier answers.
	if err := resilience.Enable(resilience.FPLoad + "=error"); err != nil {
		t.Fatal(err)
	}
	a, origin, err := reg.LoadResilient(ctx, "2014Q1")
	if err != nil || origin != OriginPeer || a != peerCopy {
		t.Fatalf("peer-tier load: origin=%v err=%v", origin, err)
	}
	if calls != 1 {
		t.Fatalf("peer fetch calls = %d, want 1", calls)
	}
	if !reg.Degraded() {
		t.Fatal("registry not degraded while serving from a peer")
	}
	if !hasEvent(log, "store_degraded", "2014Q1") {
		t.Fatal("no store_degraded audit event for the peer serve")
	}

	// The peer copy is cached as the fallback — and re-serves keep the
	// peer origin rather than masquerading as stale.
	if _, origin, err := reg.LoadResilient(ctx, "2014Q1"); err != nil || origin != OriginPeer {
		t.Fatalf("cached peer copy: origin=%v err=%v", origin, err)
	}
	if calls != 1 {
		t.Fatalf("cached serve re-fetched from peer (calls=%d)", calls)
	}

	// Recovery: past the breaker cooldown, a fresh local load answers
	// local again.
	resilience.DisableAll()
	time.Sleep(60 * time.Millisecond)
	if _, origin, err := reg.LoadResilient(ctx, "2014Q1"); err != nil || origin != OriginLocal {
		t.Fatalf("recovered load: origin=%v err=%v", origin, err)
	}

	// A label no peer holds still fails cleanly.
	if err := resilience.Enable(resilience.FPLoad + "=error"); err != nil {
		t.Fatal(err)
	}
	evict(reg, "2014Q1")
	if _, _, err := reg.LoadResilient(ctx, "1999Q1"); err == nil {
		t.Fatal("unknown label served somehow")
	}
}
