package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/strata"
	"maras/internal/synth"
)

// dupAnalysis mines a synthetic quarter whose raw reports end with a
// second report under the PrimaryID of a signal's supporting report,
// with different demographics, so the last-wins rule of drill-down and
// the double count of demographics both show.
func dupAnalysis(t *testing.T) (a *core.Analysis, dupID string) {
	t.Helper()
	cfg := synth.DefaultConfig("2014Q1", 7)
	cfg.Reports = 1_500
	cfg.ExposureRate = 0.05
	q, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions()
	opts.MinSupport = 5
	opts.TopK = 40
	reports := q.Reports()
	first, err := core.Run(reports, opts)
	if err != nil {
		t.Fatal(err)
	}
	dupID = first.Signals[0].ReportIDs[0]
	var orig faers.Report
	for _, r := range reports {
		if r.PrimaryID == dupID {
			orig = r
		}
	}
	dup := orig
	dup.CaseID, dup.Country = "DUPLICATE", "ZZ"
	dup.Sex, dup.Age, dup.AgeCode = "M", "3", "YR"
	if orig.Sex == "M" {
		dup.Sex = "F"
	}
	a, err = core.Run(append(reports, dup), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range a.Signals {
		for _, id := range s.ReportIDs {
			if id == dupID {
				return a, dupID
			}
		}
	}
	t.Fatalf("fixture: repeated ID %s supports no signal", dupID)
	return nil, ""
}

func encodeVersion(t testing.TB, a *core.Analysis, version uint16) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeVersion(&buf, "2014Q1", a, time.Unix(42, 0), version); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestV3DecodesLikeV2: a v3 file and its v2 twin decode to the same
// analysis, drill-down included, and every origin's demographics equal
// strata.Build's by-definition scan of the raw reports.
func TestV3DecodesLikeV2(t *testing.T) {
	a, dupID := dupAnalysis(t)
	s2, err := Decode(encodeVersion(t, a, 2))
	if err != nil {
		t.Fatal(err)
	}
	s3, err := Decode(encodeVersion(t, a, Version))
	if err != nil {
		t.Fatal(err)
	}
	v2, v3 := s2.Analysis, s3.Analysis
	if v2.Stats != v3.Stats || v2.Cleaning != v3.Cleaning || v2.Counts != v3.Counts {
		t.Errorf("stats differ: v2 %+v %+v %+v, v3 %+v %+v %+v",
			v2.Stats, v2.Cleaning, v2.Counts, v3.Stats, v3.Cleaning, v3.Counts)
	}
	if !reflect.DeepEqual(v2.Signals, v3.Signals) {
		t.Error("signals differ")
	}
	if !reflect.DeepEqual(s2.Quality, s3.Quality) {
		t.Errorf("quality differs:\n v2 %+v\n v3 %+v", s2.Quality, s3.Quality)
	}

	raw := a.RawReports()
	last := map[string]faers.Report{}
	for _, r := range raw {
		last[r.PrimaryID] = r
	}
	if last[dupID].CaseID != "DUPLICATE" {
		t.Fatalf("fixture: last report under %s is %+v", dupID, last[dupID])
	}
	for id, want := range last {
		for name, an := range map[string]*core.Analysis{"fresh": a, "v2": v2, "v3": v3} {
			got, ok := an.Report(id)
			if !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s Report(%q) = %+v, %v; want %+v", name, id, got, ok, want)
			}
		}
	}
	for _, id := range []string{"no-such-report", "", dupID + "0"} {
		for name, an := range map[string]*core.Analysis{"fresh": a, "v2": v2, "v3": v3} {
			if r, ok := an.Report(id); ok {
				t.Errorf("%s Report(%q) found %+v", name, id, r)
			}
		}
	}

	for i := range a.Signals {
		s := &a.Signals[i]
		want := strata.Build(raw, s.ReportIDs)
		for name, an := range map[string]*core.Analysis{"fresh": a, "v2": v2, "v3": v3} {
			if got := an.Demographics(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s Demographics(rank %d)\n got %+v\nwant %+v", name, s.Rank, got, want)
			}
		}
	}
}

// TestV3ReencodeIdentical: a quarter loaded from a v3 file, written
// again at the same save time — directly and through Registry.Save —
// reproduces the file byte for byte, lazily decoded reports and all.
func TestV3ReencodeIdentical(t *testing.T) {
	a, _ := dupAnalysis(t)
	orig := encodeVersion(t, a, Version)
	snap, err := Decode(orig)
	if err != nil {
		t.Fatal(err)
	}
	if again := encodeVersion(t, snap.Analysis, Version); !bytes.Equal(again, orig) {
		t.Fatalf("re-encoded v3 quarter differs: %d bytes vs %d", len(again), len(orig))
	}

	snap, err = Decode(orig)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := OpenRegistry(t.TempDir(), RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Save("2014Q1", snap.Analysis); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(reg.Path("2014Q1"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(saved)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := write(&want, "2014Q1", a, back.SavedAt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, want.Bytes()) {
		t.Errorf("Registry.Save of a loaded v3 quarter differs from the original encoding")
	}
}

// sectionAt returns the offset of section id's header in a snapshot,
// or -1.
func sectionAt(data []byte, id uint16) int {
	for off := 8; off+8 <= len(data)-4; {
		if binary.LittleEndian.Uint16(data[off:]) == id {
			return off
		}
		off += 8 + int(binary.LittleEndian.Uint32(data[off+4:]))
	}
	return -1
}

// reseal recomputes a snapshot's CRC trailer after an edit.
func reseal(data []byte) []byte {
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	return data
}

// corruptV3 derives crafted files with valid CRCs from a v3 encoding:
// the index section cut short mid-rows (its length patched), and each
// kind of index entry pointed out of range.
func corruptV3(t testing.TB, data []byte) map[string][]byte {
	t.Helper()
	at := sectionAt(data, secIndex)
	if at < 0 {
		t.Fatal("no index section")
	}
	payload := at + 8
	_, k := binary.Uvarint(data[payload:])
	row := payload + k // first row: sex, age, offset
	count := (int(binary.LittleEndian.Uint32(data[at+4:])) - k) / 10
	order := row + 6*count

	out := map[string][]byte{}
	cut := bytes.Clone(data[:row+6*3+2])
	binary.LittleEndian.PutUint32(cut[at+4:], uint32(len(cut)-payload))
	out["truncated index"] = reseal(append(cut, data[len(data)-4:]...))
	patch := func(name string, off int, b ...byte) {
		c := bytes.Clone(data)
		copy(c[off:], b)
		out[name] = reseal(c)
	}
	patch("offset past section", row+2, 0xff, 0xff, 0xff, 0x7f)
	patch("offset out of order", row+6+2, 0, 0, 0, 0)
	patch("bad strata code", row, 9)
	patch("order entry out of range", order, 0xff, 0xff, 0xff, 0x7f)
	patch("order entry repeated", order+4, data[order], data[order+1], data[order+2], data[order+3])
	swapped := bytes.Clone(data)
	copy(swapped[order:], data[order+4:order+8])
	copy(swapped[order+4:], data[order:order+4])
	out["order not sorted"] = reseal(swapped)
	return out
}

func TestV3CorruptIndexRejected(t *testing.T) {
	a := synthAnalysis(t)
	for name, data := range corruptV3(t, encode(t, "2014Q1", a)) {
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

// TestV3MissingIndexRejected: a v3 file without its index section is
// damage, not an older layout.
func TestV3MissingIndexRejected(t *testing.T) {
	data := encode(t, "2014Q1", synthAnalysis(t))
	at := sectionAt(data, secIndex)
	binary.LittleEndian.PutUint16(data[at:], 99) // now an unknown section
	if _, err := Decode(reseal(data)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("got %v, want ErrCorrupt", err)
	}
}

// TestLazyReportsConcurrent: the first Report, Demographics and
// RawReports calls build state once (the index of a fresh analysis,
// the report list of a v3 one); concurrent first callers must agree.
// Run under -race.
func TestLazyReportsConcurrent(t *testing.T) {
	a := synthAnalysis(t)
	data := encode(t, "2014Q1", a)
	eager, err := Decode(encodeVersion(t, a, 2))
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	s := &a.Signals[0]
	want := strata.Build(a.RawReports(), s.ReportIDs)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for _, an := range []*core.Analysis{eager.Analysis, lazy.Analysis} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := an.Demographics(s); !reflect.DeepEqual(got, want) {
					t.Errorf("Demographics = %+v, want %+v", got, want)
				}
				if _, ok := an.Report(s.ReportIDs[0]); !ok {
					t.Errorf("Report(%q) not found", s.ReportIDs[0])
				}
				if n := len(an.RawReports()); n != len(a.RawReports()) {
					t.Errorf("RawReports has %d reports, want %d", n, len(a.RawReports()))
				}
			}()
		}
	}
	wg.Wait()
}
