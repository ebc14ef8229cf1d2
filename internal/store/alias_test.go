package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// A decoded quarter's signal names are substrings of its signals
// section, while the trend assembly the registry caches outlives the
// quarter. After a served-shaped quarter is decoded, assembled and
// evicted, no trajectory string may point into that section, or one
// name would keep the whole section alive.
func TestTrajectoriesDoNotPinTheSection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "2014Q1"+Ext)
	if err := WriteFile(path, "2014Q1", servedQuarter(t)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(filepath.Join(dir, "2014Q2"+Ext), "2014Q2", quarterAnalysis(t, 8)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The resilient registry retains 2014Q1 when it is evicted, so the
	// assembly works from the very copy loaded here.
	reg, err := OpenRegistry(dir, RegistryOptions{MaxOpen: 1, Resilience: &ResilienceOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	a, err := reg.Load("2014Q1")
	if err != nil {
		t.Fatal(err)
	}
	ta, err := reg.TrendAnalysis() // 2014Q1 hits, 2014Q2 evicts it
	if err != nil {
		t.Fatal(err)
	}
	if reg.OpenCount() != 1 || !reg.HasStale("2014Q1") {
		t.Fatal("fixture: 2014Q1 is not evicted and retained")
	}

	// Locate the section's backing string: the first signal's first
	// drug name sits at a known offset of the section payload.
	at := sectionAt(data, secSignals)
	size := uintptr(binary.LittleEndian.Uint32(data[at+4:]))
	d := &dec{b: data[at+8 : at+8+int(size)]}
	d.count(8) // signal count
	d.i64()    // rank
	d.f64()    // score
	d.count(1) // drug count
	d.uv()     // first name's length
	if d.err != nil {
		t.Fatal(d.err)
	}
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	base := addr(a.Signals[0].Drugs[0]) - uintptr(d.off)
	inSection := func(s string) bool {
		p := addr(s)
		return len(s) > 0 && p >= base && p < base+size
	}
	// The decode carves the names from the section: every one of them
	// is inside it, or the range above is wrong.
	for _, s := range a.Signals {
		for _, l := range [][]string{s.Drugs, s.Reactions} {
			for _, n := range l {
				if !inSection(n) {
					t.Fatalf("decoded name %q is not in the signals section", n)
				}
			}
		}
	}

	checked := 0
	for _, tr := range ta.Trajectories {
		if inSection(tr.Key) {
			t.Fatalf("trajectory key %q points into the evicted quarter's section", tr.Key)
		}
		for _, l := range [][]string{tr.Drugs, tr.Reactions} {
			for _, n := range l {
				if inSection(n) {
					t.Fatalf("trajectory %s keeps %q from the evicted quarter's section", tr.Key, n)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("fixture: no trajectory names to check")
	}
}
