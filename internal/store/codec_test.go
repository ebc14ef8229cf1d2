package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"maras/internal/assoc"
	"maras/internal/audit"
	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/rank"
	"maras/internal/synth"
	"maras/internal/types"
)

// synthAnalysis mines a small synthetic quarter — a full Analysis
// with clusters, knowledge hits, SOCs, demographics-capable reports.
func synthAnalysis(t testing.TB) *core.Analysis {
	t.Helper()
	cfg := synth.DefaultConfig("2014Q1", 7)
	cfg.Reports = 3_000
	cfg.ExposureRate = 0.05
	q, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions()
	opts.MinSupport = 5
	opts.TopK = 40
	opts.CountRules = true
	a, err := core.RunQuarter(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Signals) == 0 {
		t.Fatal("fixture mined no signals")
	}
	return a
}

func encode(t *testing.T, label string, a *core.Analysis) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, label, a); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripFullAnalysis(t *testing.T) {
	a := synthAnalysis(t)
	data := encode(t, "2014Q1", a)

	snap, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Label != "2014Q1" {
		t.Errorf("label = %q", snap.Label)
	}
	rt := snap.Analysis

	// Ranked signals — scores, measures, cluster structure, report
	// links, knowledge hits — must round-trip value-identical.
	if !reflect.DeepEqual(a.Signals, rt.Signals) {
		for i := range a.Signals {
			if i < len(rt.Signals) && !reflect.DeepEqual(a.Signals[i], rt.Signals[i]) {
				t.Fatalf("signal %d differs:\n orig: %+v\n  got: %+v", i, a.Signals[i], rt.Signals[i])
			}
		}
		t.Fatalf("signals differ: %d vs %d", len(a.Signals), len(rt.Signals))
	}
	if a.Stats != rt.Stats {
		t.Errorf("stats: %+v vs %+v", a.Stats, rt.Stats)
	}
	if a.Cleaning != rt.Cleaning {
		t.Errorf("cleaning: %+v vs %+v", a.Cleaning, rt.Cleaning)
	}
	if a.Counts != rt.Counts {
		t.Errorf("counts: %+v vs %+v", a.Counts, rt.Counts)
	}
	if !reflect.DeepEqual(a.RawReports(), rt.RawReports()) {
		t.Error("raw reports differ after round trip")
	}

	// The dictionary must reproduce IDs exactly: cluster itemsets
	// reference it.
	if a.Dict().Len() != rt.Dict().Len() {
		t.Fatalf("dict len %d vs %d", a.Dict().Len(), rt.Dict().Len())
	}
	s0 := rt.Signals[0]
	names := rt.Dict().SortedNames(s0.Cluster.Target.Antecedent)
	if !reflect.DeepEqual(names, s0.Drugs) {
		t.Errorf("rehydrated dict decodes cluster to %v, signal says %v", names, s0.Drugs)
	}

	// Serving paths on the rehydrated analysis.
	if got := rt.FilterSignals(strings.ToLower(s0.Drugs[0])); len(got) == 0 {
		t.Error("FilterSignals found nothing on rehydrated analysis")
	}
	if _, ok := rt.Report(s0.ReportIDs[0]); !ok {
		t.Error("report drill-down lost after round trip")
	}
	prof := rt.Demographics(&s0)
	if len(prof.SexSignal) == 0 && len(prof.AgeSignal) == 0 {
		t.Error("demographics empty on rehydrated analysis")
	}
}

// TestSupportTypesRoundTrip pins the byte each support type is
// persisted as, unsupported included, which no mined signal carries
// any more, and round-trips a signal of each type.
func TestSupportTypesRoundTrip(t *testing.T) {
	a := synthAnalysis(t)
	s := &a.Signals[0]
	for _, c := range []struct {
		st   assoc.SupportType
		code byte
	}{{assoc.Unsupported, 0}, {assoc.Explicit, 1}, {assoc.Implicit, 2}} {
		if byte(c.st) != c.code {
			t.Fatalf("%s encodes as %d, want %d", c.st, byte(c.st), c.code)
		}
		s.SupportType = c.st
		snap, err := Decode(encode(t, "2014Q1", a))
		if err != nil {
			t.Fatal(err)
		}
		if got := snap.Analysis.Signals[0].SupportType; got != c.st {
			t.Errorf("%s round-trips as %s", c.st, got)
		}
	}
}

func TestRoundTripDeterministic(t *testing.T) {
	a := synthAnalysis(t)
	var b1, b2 bytes.Buffer
	if err := write(&b1, "2014Q1", a, time.Unix(42, 0)); err != nil {
		t.Fatal(err)
	}
	if err := write(&b2, "2014Q1", a, time.Unix(42, 0)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("same analysis encoded twice produced different bytes")
	}
}

func TestDecodeTruncated(t *testing.T) {
	a := synthAnalysis(t)
	data := encode(t, "2014Q1", a)
	for _, n := range []int{5, 11, 40, len(data) / 2, len(data) - 1} {
		if n >= len(data) {
			continue
		}
		_, err := Decode(data[:n])
		if err == nil {
			t.Fatalf("truncation at %d decoded successfully", n)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d: got %v, want ErrCorrupt", n, err)
		}
	}
}

func TestDecodeBadCRC(t *testing.T) {
	a := synthAnalysis(t)
	data := encode(t, "2014Q1", a)
	data[len(data)/2] ^= 0xFF
	_, err := Decode(data)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip: got %v, want ErrCorrupt", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	a := synthAnalysis(t)
	data := encode(t, "2014Q1", a)
	data[0] = 'X'
	if _, err := Decode(data); !errors.Is(err, ErrBadMagic) {
		t.Errorf("got %v, want ErrBadMagic", err)
	}
	if _, err := Decode([]byte("no")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("tiny input: got %v, want ErrBadMagic", err)
	}
}

func TestDecodeWrongVersion(t *testing.T) {
	a := synthAnalysis(t)
	data := encode(t, "2014Q1", a)
	// Bump the version field and re-seal the CRC so only the version
	// check can fail.
	binary.LittleEndian.PutUint16(data[4:6], Version+1)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Errorf("got %v, want ErrVersion", err)
	}
}

// TestDecodeGarbageNeverPanics seals adversarial bodies with a valid
// header and CRC so the section parser itself is exercised.
func TestDecodeGarbageNeverPanics(t *testing.T) {
	bodies := [][]byte{
		{},
		{1, 0, 0, 0, 255, 255, 255, 255},     // section claiming 4GB payload
		{3, 0, 0, 0, 2, 0, 0, 0, 0xFF, 0xFF}, // dict with absurd count varint
		{4, 0, 0, 0, 1, 0, 0, 0, 0xFF},       // signals, bad count
		bytes.Repeat([]byte{0xAB}, 64),       // noise
		{9, 9, 0, 0, 4, 0, 0, 0, 1, 2, 3, 4}, // unknown section id: must be skipped
		{2, 0, 0, 0, 1, 0, 0, 0, 0x80},       // stats section, dangling varint
		// dict naming "A" as a drug and then as a reaction
		{3, 0, 0, 0, 7, 0, 0, 0, 2, 0, 1, 'A', 1, 1, 'A'},
	}
	for i, body := range bodies {
		var buf []byte
		buf = append(buf, magic[:]...)
		buf = binary.LittleEndian.AppendUint16(buf, Version)
		buf = binary.LittleEndian.AppendUint16(buf, 0)
		buf = append(buf, body...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("body %d: decode panicked: %v", i, r)
				}
			}()
			snap, err := Decode(buf)
			// Garbage must error; the lone legal outcome is the
			// unknown-section body, which decodes to an empty snapshot
			// and then fails the missing-dictionary check.
			if err == nil && snap != nil {
				t.Errorf("body %d: garbage decoded without error", i)
			}
		}()
	}
}

func TestWriteFileAtomic(t *testing.T) {
	a := synthAnalysis(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "2014Q1"+Ext)
	if err := WriteFile(path, "2014Q1", a); err != nil {
		t.Fatal(err)
	}
	snap, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Analysis.Signals) != len(a.Signals) {
		t.Errorf("signals: %d vs %d", len(snap.Analysis.Signals), len(a.Signals))
	}
	// No temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory litter after atomic write: %v", names)
	}
	// Overwrite in place: readers never see a partial file, and the
	// new content wins.
	if err := WriteFile(path, "2014Q1", a); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err != nil {
		t.Fatal(err)
	}
}

// The mine-once/serve-many ratio: how much cheaper is decoding a
// snapshot than re-running the pipeline that produced it. EXPERIMENTS
// quotes these two.
func BenchmarkMineQuarter(b *testing.B) {
	cfg := synth.DefaultConfig("2014Q1", 7)
	cfg.Reports = 3_000
	cfg.ExposureRate = 0.05
	q, _, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.NewOptions()
	opts.MinSupport = 5
	opts.TopK = 40
	opts.CountRules = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunQuarter(q, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// servedQuarter mines a quarter shaped like the ones a server holds:
// 4,000 reports sampled from a 16,500-report population and mined with
// the options maras-mine ships, keeping every signal (the first store
// quarter perfbench builds for seed 1). Unlike synthAnalysis's 40
// signals, its signals section outweighs the dictionary.
func servedQuarter(t testing.TB) *core.Analysis {
	t.Helper()
	cfg := synth.DefaultConfig("2014Q1", 20180416)
	cfg.Reports = 16_500
	q, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := q.Reports()
	idx := rand.New(rand.NewSource(1001)).Perm(len(pool))[:4_000]
	sort.Ints(idx)
	reports := make([]faers.Report, len(idx))
	for i, j := range idx {
		reports[i] = pool[j]
	}
	opts := core.NewOptions()
	opts.MinSupport = 8
	opts.Theta = 0.5
	opts.Method = rank.ByExclusivenessConf
	opts.TopK = 0
	a, err := core.Run(reports, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// BenchmarkSnapshotDecode decodes the same quarter from format v2,
// which builds every report, and from v3, which keeps the report
// bodies encoded; then a served-shaped quarter (servedQuarter) in the
// current format.
func BenchmarkSnapshotDecode(b *testing.B) {
	run := func(name string, data []byte) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	a := synthAnalysis(b)
	for _, version := range []uint16{2, 3} {
		var buf bytes.Buffer
		if err := writeVersion(&buf, "2014Q1", a, time.Unix(42, 0), version); err != nil {
			b.Fatal(err)
		}
		run(fmt.Sprintf("v%d", version), buf.Bytes())
	}
	var buf bytes.Buffer
	if err := write(&buf, "2014Q1", servedQuarter(b), time.Unix(42, 0)); err != nil {
		b.Fatal(err)
	}
	run("served", buf.Bytes())
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"+Ext)); err == nil {
		t.Error("opening a missing snapshot succeeded")
	}
}

// TestSnapshotSmallerThanNaiveJSON is a soft size sanity check: the
// binary codec should not be wildly larger than the data it holds.
func TestSnapshotEncodesReportsOnce(t *testing.T) {
	a := synthAnalysis(t)
	data := encode(t, "2014Q1", a)
	perReport := float64(len(data)) / float64(len(a.RawReports()))
	if perReport > 4096 {
		t.Errorf("snapshot is %.0f bytes/report — codec bloat?", perReport)
	}
}

// TestQualityRoundTrip: a v2 snapshot persists the quality metrics and
// decodes them identical to what ComputeQuality derives live.
func TestQualityRoundTrip(t *testing.T) {
	a := synthAnalysis(t)
	data := encode(t, "2014Q1", a)

	snap, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Quality == nil {
		t.Fatal("v2 snapshot decoded without quality")
	}
	want := audit.ComputeQuality("2014Q1", a)
	if !reflect.DeepEqual(snap.Quality, want) {
		t.Errorf("quality round-trip mismatch:\n got %+v\nwant %+v", snap.Quality, want)
	}
	if snap.Quality.Signals != len(a.Signals) {
		t.Errorf("quality signals = %d, want %d", snap.Quality.Signals, len(a.Signals))
	}
	if snap.Quality.SupportHist.Total() != int64(len(a.Signals)) {
		t.Errorf("support hist total = %d, want %d", snap.Quality.SupportHist.Total(), len(a.Signals))
	}
	if snap.Quality.Verdict != "" || snap.Quality.Findings != nil {
		t.Errorf("persisted quality must not carry verdict/findings: %+v", snap.Quality)
	}
}

// TestDecodeV1RecomputesQuality: genuine version-1 bytes (no quality
// section) still decode, with the quality report recomputed from the
// rehydrated analysis — byte-for-byte the same metrics a v2 file
// would have persisted.
func TestDecodeV1RecomputesQuality(t *testing.T) {
	a := synthAnalysis(t)
	var buf bytes.Buffer
	if err := writeVersion(&buf, "2014Q1", a, time.Unix(42, 0), 1); err != nil {
		t.Fatal(err)
	}
	// Paranoia: the file really is v1 on the wire.
	if v := binary.LittleEndian.Uint16(buf.Bytes()[4:6]); v != 1 {
		t.Fatalf("fixture wrote v%d", v)
	}

	snap, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
	if snap.Quality == nil {
		t.Fatal("v1 decode left Quality nil")
	}
	want := audit.ComputeQuality("2014Q1", snap.Analysis)
	if !reflect.DeepEqual(snap.Quality, want) {
		t.Errorf("recomputed quality mismatch:\n got %+v\nwant %+v", snap.Quality, want)
	}
	if len(snap.Analysis.Signals) == 0 || snap.Quality.Signals == 0 {
		t.Error("v1 decode lost signals")
	}
}

// TestDecodeUnknownQualityFormat: a quality payload with a future
// sub-format byte is skipped (recompute fallback), not an error.
func TestDecodeUnknownQualityFormat(t *testing.T) {
	a := synthAnalysis(t)
	data := encode(t, "2014Q1", a)

	// Find the quality section header and bump its first payload byte
	// (the sub-format) to an unknown value, then re-seal the CRC.
	body := data[:len(data)-4]
	off := 8
	patched := false
	for off < len(body) {
		id := binary.LittleEndian.Uint16(body[off:])
		n := int(binary.LittleEndian.Uint32(body[off+4:]))
		if id == secQuality {
			body[off+8] = 99
			patched = true
			break
		}
		off += 8 + n
	}
	if !patched {
		t.Fatal("quality section not found")
	}
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))

	snap, err := Decode(data)
	if err != nil {
		t.Fatalf("unknown quality sub-format must not fail decode: %v", err)
	}
	want := audit.ComputeQuality("2014Q1", snap.Analysis)
	if !reflect.DeepEqual(snap.Quality, want) {
		t.Error("fallback recompute mismatch")
	}
}

// unissuedItem returns a v3 snapshot of a whose first signal's first
// contextual rule names item id in place of its first drug, with the
// CRC resealed: a file that passes the CRC but carries an item the
// dictionary never issued (ids at or above 2^31 decode as negative
// items). Rendering the signal's glyph labels that rule.
func unissuedItem(t testing.TB, a *core.Analysis, id uint32) []byte {
	t.Helper()
	const marker = 0x5eed1234
	rule := &a.Signals[0].Cluster.Levels[0].Rules[0]
	saved := rule.Antecedent
	rule.Antecedent = append(types.Itemset{marker}, saved[1:]...)
	var buf bytes.Buffer
	err := writeVersion(&buf, "2014Q1", a, time.Unix(42, 0), Version)
	rule.Antecedent = saved
	if err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	mark := binary.LittleEndian.AppendUint32(nil, marker)
	at := bytes.Index(data, mark)
	if at < 0 || bytes.Count(data, mark) != 1 {
		t.Fatal("marker item not found exactly once")
	}
	binary.LittleEndian.PutUint32(data[at:], id)
	return reseal(data)
}

func TestDecodeRejectsItemsOutsideDictionary(t *testing.T) {
	a := synthAnalysis(t)
	n := uint32(a.Dict().Len())
	for _, id := range []uint32{n, n + 1000, 1 << 31, 0xfffffffe} {
		if _, err := Decode(unissuedItem(t, a, id)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("item %d in a %d-item dictionary: got %v, want ErrCorrupt", id, n, err)
		}
	}
	// The last issued item still decodes.
	if _, err := Decode(unissuedItem(t, a, n-1)); err != nil {
		t.Errorf("item %d: %v", n-1, err)
	}
}

// The signals' items are bounded by the dictionary, so a file whose
// signals section precedes it is corrupt.
func TestDecodeRejectsSignalsBeforeDictionary(t *testing.T) {
	data := encode(t, "2014Q1", synthAnalysis(t))
	dictAt, sigAt := sectionAt(data, secDict), sectionAt(data, secSignals)
	end := sigAt + 8 + int(binary.LittleEndian.Uint32(data[sigAt+4:]))
	if dictAt < 0 || sigAt < dictAt {
		t.Fatal("fixture does not write the dictionary before the signals")
	}
	swapped := bytes.Clone(data[:dictAt])
	swapped = append(swapped, data[sigAt:end]...)
	swapped = append(swapped, data[dictAt:sigAt]...)
	swapped = append(swapped, data[end:]...)
	if _, err := Decode(reseal(swapped)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("got %v, want ErrCorrupt", err)
	}
}

// metaVariants derives CRC-valid files from an encoding whose meta
// section is misplaced: missing (byte 8, the section's ID, set to an
// unknown 0x77), repeated, and pushed past the first manifestHead
// bytes by an unknown section ahead of it. The last entry, "padded",
// puts a small unknown section ahead of meta and stays valid.
func metaVariants(data []byte) map[string][]byte {
	at := sectionAt(data, secMeta)
	end := at + 8 + int(binary.LittleEndian.Uint32(data[at+4:]))
	unknown := func(n int) []byte {
		sec := binary.LittleEndian.AppendUint16(nil, 0x77)
		sec = binary.LittleEndian.AppendUint16(sec, 0)
		sec = binary.LittleEndian.AppendUint32(sec, uint32(n))
		return append(sec, make([]byte, n)...)
	}
	insert := func(off int, b []byte) []byte {
		out := bytes.Clone(data[:off])
		out = append(out, b...)
		return reseal(append(out, data[off:]...))
	}
	missing := bytes.Clone(data)
	missing[8] = 0x77
	return map[string][]byte{
		"missing":        reseal(missing),
		"repeated":       insert(end, data[at:end]),
		"past the front": insert(at, unknown(manifestHead)),
		"padded":         insert(at, unknown(64)),
	}
}

// Decode takes a file's label from its one meta section, where
// ReadManifest looks for it; a file with none, two, or one beyond
// ReadManifest's front read is corrupt, even with a valid CRC.
func TestDecodeRequiresOneMetaSection(t *testing.T) {
	data := encode(t, "2014Q1", synthAnalysis(t))
	if at := sectionAt(data, secMeta); at != 8 {
		t.Fatalf("fixture's meta section at offset %d, want 8", at)
	}
	dir := t.TempDir()
	for name, file := range metaVariants(data) {
		snap, err := Decode(file)
		path := filepath.Join(dir, "2014Q1.maras")
		if werr := os.WriteFile(path, file, 0o644); werr != nil {
			t.Fatal(werr)
		}
		m, merr := ReadManifest(path)
		if name == "padded" {
			if err != nil || merr != nil {
				t.Fatalf("%s: Decode %v, ReadManifest %v; want both to accept", name, err, merr)
			}
			if snap.Label != "2014Q1" || m.Label != snap.Label {
				t.Errorf("%s: Decode label %q, manifest label %q, want 2014Q1", name, snap.Label, m.Label)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode = (label %q, %v), want ErrCorrupt", name, labelOf(snap), err)
		}
		if name == "missing" && !errors.Is(merr, ErrCorrupt) {
			t.Errorf("%s: ReadManifest = %v, want ErrCorrupt", name, merr)
		}
	}
}

func labelOf(s *Snapshot) string {
	if s == nil {
		return ""
	}
	return s.Label
}
