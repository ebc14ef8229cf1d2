package store

import (
	"os"
	"path/filepath"
	"testing"
)

// A label that could name a path outside the store directory is
// rejected by InstallBytes and Save before anything is written, and
// never becomes a quarter.
func TestBadLabelsWriteNothing(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "store")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	reg, err := OpenRegistry(dir, RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data := snapshotBytes(t, "2014Q1")
	a := quarterAnalysis(t, 8)
	for _, label := range []string{"", "..", "../escape", "sub/2014Q1", `sub\2014Q1`, "2014..Q1", "/abs"} {
		if err := CheckLabel(label); err == nil {
			t.Errorf("CheckLabel(%q) passed", label)
		}
		if err := reg.InstallBytes(label, data); err == nil {
			t.Errorf("InstallBytes(%q) succeeded", label)
		}
		if err := reg.Save(label, a); err == nil {
			t.Errorf("Save(%q) succeeded", label)
		}
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
		t.Fatalf("quarters after rejected writes: %v, latest %q", q, reg.Latest())
	}
	if err := CheckLabel("2014Q1"); err != nil {
		t.Fatalf("CheckLabel(2014Q1): %v", err)
	}
}
