package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"maras/internal/core"
	"maras/internal/glyph"
	"maras/internal/synth"
)

// FuzzDecode throws arbitrary bytes at the snapshot decoder. The
// contract under fuzz: Decode never panics, never allocates absurdly
// off a corrupt count, and every failure is one of the three typed
// errors (ErrBadMagic / ErrVersion / ErrCorrupt) so callers can always
// classify what they hit. A successful decode must also serve every
// lazy read without panicking: Report for every indexed ID and
// Demographics for every signal, and render every signal's glyph and
// zoom view (which look each cluster item's name up by ID), so a
// crafted file with a valid CRC cannot fail later. Seeds cover the
// honest cases — valid v3, v2 and v1 snapshots, truncations, a bit flip
// (caught by CRC), and degenerate prefixes — plus v3 files with
// resealed CRCs whose report index is cut short or points past its
// section, or whose cluster names an item the dictionary never issued.
func FuzzDecode(f *testing.F) {
	// A deliberately small quarter: mutation throughput matters more
	// than fixture richness here, and every byte of the format —
	// header, all six sections, CRC — is present regardless of size.
	cfg := synth.DefaultConfig("2014Q1", 7)
	cfg.Reports = 300
	q, _, err := synth.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	opts := core.NewOptions()
	opts.MinSupport = 3
	opts.TopK = 10
	a, err := core.RunQuarter(q, opts)
	if err != nil {
		f.Fatal(err)
	}
	var v3, v2, v1 bytes.Buffer
	for v, buf := range map[uint16]*bytes.Buffer{3: &v3, 2: &v2, 1: &v1} {
		if err := writeVersion(buf, "2014Q1", a, time.Unix(42, 0), v); err != nil {
			f.Fatal(err)
		}
	}

	f.Add(v3.Bytes())
	crafted := corruptV3(f, v3.Bytes())
	f.Add(crafted["truncated index"])
	f.Add(crafted["offset past section"])
	f.Add(unissuedItem(f, a, uint32(a.Dict().Len())))
	f.Add(unissuedItem(f, a, 0xfffffffe))
	f.Add(v2.Bytes())
	f.Add(v1.Bytes())
	f.Add(v2.Bytes()[:len(v2.Bytes())/2]) // truncated mid-body
	f.Add(v2.Bytes()[:10])                // truncated inside the header
	flipped := bytes.Clone(v2.Bytes())
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("MRSN"))
	f.Add([]byte("not a snapshot at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A successful decode must hand back a servable snapshot.
		if snap == nil || snap.Analysis == nil {
			t.Fatal("nil snapshot/analysis without error")
		}
		if snap.Quality == nil {
			t.Fatal("nil quality without error")
		}
		an := snap.Analysis
		for _, r := range an.RawReports() {
			if got, ok := an.Report(r.PrimaryID); ok && got.PrimaryID != r.PrimaryID {
				t.Fatalf("Report(%q) returned report %q", r.PrimaryID, got.PrimaryID)
			}
		}
		dict := an.Dict()
		for i := range an.Signals {
			an.Demographics(&an.Signals[i])
			glyph.Contextual(an.Signals[i].Cluster, glyph.Options{Dict: dict})
			glyph.Zoom(an.Signals[i].Cluster, dict)
		}
	})
}

// FuzzDecodeResealed is FuzzDecode with the checksum out of the way:
// the harness recomputes the CRC trailer over the mutated body before
// decoding, so mutations reach the section parsers instead of stopping
// at CheckBytes. The contract is FuzzDecode's: typed errors only, and
// every successful decode serves Report, Demographics, glyph and zoom.
// Seeds add files whose counts wrap a multiplied bound in every
// position the format holds one.
func FuzzDecodeResealed(f *testing.F) {
	cfg := synth.DefaultConfig("2014Q1", 7)
	cfg.Reports = 300
	q, _, err := synth.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	opts := core.NewOptions()
	opts.MinSupport = 3
	opts.TopK = 10
	a, err := core.RunQuarter(q, opts)
	if err != nil {
		f.Fatal(err)
	}
	v3 := encodeVersion(f, a, Version)
	f.Add(v3)
	f.Add(encodeVersion(f, a, 2))
	f.Add(encodeVersion(f, a, 1))
	for _, data := range corruptV3(f, v3) {
		f.Add(data)
	}
	f.Add(unissuedItem(f, a, uint32(a.Dict().Len())))
	f.Add(withCount(v3, secDict, 0, 1<<63))
	for _, off := range countOffsets(f, v3) {
		f.Add(withCount(v3, secSignals, off, 1<<62+1))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 12 {
			data = reseal(bytes.Clone(data))
		}
		snap, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if snap == nil || snap.Analysis == nil || snap.Quality == nil {
			t.Fatal("nil snapshot, analysis or quality without error")
		}
		an := snap.Analysis
		for _, r := range an.RawReports() {
			if got, ok := an.Report(r.PrimaryID); ok && got.PrimaryID != r.PrimaryID {
				t.Fatalf("Report(%q) returned report %q", r.PrimaryID, got.PrimaryID)
			}
		}
		dict := an.Dict()
		for i := range an.Signals {
			an.Demographics(&an.Signals[i])
			glyph.Contextual(an.Signals[i].Cluster, glyph.Options{Dict: dict})
			glyph.Zoom(an.Signals[i].Cluster, dict)
		}
	})
}

// FuzzReadManifest writes arbitrary bytes to a file and reads its
// manifest, the one reader of snapshot bytes an inventory scan runs
// over every file it lists, peer-installed ones included. The
// contract: ReadManifest never panics; every error it returns wraps
// ErrCorrupt, ErrBadMagic or ErrVersion, or is an I/O error; and for
// bytes whose envelope CheckBytes accepts and that Decode accepts, the
// manifest's label, save time, CRC and size agree with the decode.
// Each input is checked as given and with its CRC trailer resealed
// over the body, so mutations also reach the section walk. Seeds are a
// real snapshot, truncated and bit-flipped copies of it, its v2 twin,
// and files whose meta section is missing, repeated or misplaced.
func FuzzReadManifest(f *testing.F) {
	cfg := synth.DefaultConfig("2014Q1", 7)
	cfg.Reports = 300
	q, _, err := synth.Generate(cfg)
	if err != nil {
		f.Fatal(err)
	}
	opts := core.NewOptions()
	opts.MinSupport = 3
	opts.TopK = 10
	a, err := core.RunQuarter(q, opts)
	if err != nil {
		f.Fatal(err)
	}
	v3 := encodeVersion(f, a, Version)
	f.Add(v3)
	f.Add(encodeVersion(f, a, 2))
	for _, n := range []int{0, 4, 8, 11, 12, 20, len(v3) / 2, len(v3) - 1} {
		f.Add(v3[:n])
	}
	// Flip a bit in the version, the meta section's header and label,
	// the body and the CRC trailer.
	for _, off := range []int{5, 8, 12, 17, len(v3) / 2, len(v3) - 2} {
		flipped := bytes.Clone(v3)
		flipped[off] ^= 0x10
		f.Add(flipped)
	}
	for _, data := range metaVariants(v3) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkManifest(t, data)
		if len(data) >= 12 {
			checkManifest(t, reseal(bytes.Clone(data)))
		}
	})
}

// checkManifest holds ReadManifest on data to FuzzReadManifest's
// contract.
func checkManifest(t *testing.T, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "2014Q1.maras")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(path)
	var pathErr *fs.PathError
	if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
		!errors.As(err, &pathErr) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("untyped manifest error: %v", err)
	}
	if CheckBytes(data) != nil {
		return
	}
	snap, derr := Decode(data)
	if derr != nil {
		return
	}
	if err != nil {
		t.Fatalf("Decode accepts the file, ReadManifest fails: %v", err)
	}
	if m.Label != snap.Label || !m.SavedAt.Equal(snap.SavedAt) || m.Size != snap.Size ||
		m.CRC != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		t.Fatalf("manifest %+v, decoded label %q saved %v size %d crc %08x",
			m, snap.Label, snap.SavedAt, snap.Size, binary.LittleEndian.Uint32(data[len(data)-4:]))
	}
}
