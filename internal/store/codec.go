// Package store persists completed MARAS analyses as versioned binary
// snapshots and serves them back from disk — the mine-once/serve-many
// layer quarterly surveillance needs. A snapshot captures everything a
// serving process reads from an Analysis: dataset and cleaning stats,
// the ranked signals with their full MCAC cluster structure, the
// dictionary the clusters' item IDs are encoded against, and the raw
// reports the signals link back to. The Registry (registry.go) manages
// a directory of per-quarter snapshots with atomic writes, a bounded
// table of decoded quarters, and cross-quarter timeline queries.
//
// # File format (version 3)
//
//	header   magic "MRSN" | version uint16 | flags uint16
//	body     sections, each: id uint16 | reserved uint16 |
//	         length uint32 | payload[length]
//	trailer  CRC-32 (IEEE) of every preceding byte, uint32
//
// All fixed-width integers are little-endian; variable-size values
// inside payloads use varint (counts, signed ints) and length-prefixed
// UTF-8 (strings). Unknown section IDs are skipped on read, so later
// versions can add sections without breaking old readers. Readers
// verify the CRC before parsing a single section, and every decode is
// bounds-checked: corrupt input yields a typed error, never a panic.
// The meta section comes first, directly after the header, so
// ReadManifest finds it with one small read. A file holds exactly one
// meta section, ending within its first manifestHead bytes; Decode
// rejects any other file, so what it accepts ReadManifest reads the
// same. The dictionary precedes the signals, whose cluster rules may
// name only items it issued.
//
// Version 2 adds the quality section (the metric half of an
// audit.QualityReport, persisted so serving a quarter's ingest-quality
// report costs no recomputation). Version 1 files remain readable:
// they simply lack the section, and Decode recomputes the report from
// the rehydrated analysis on load.
//
// Version 3 adds the report index section, written last:
//
//	count    uvarint n, the reports section's report count
//	rows     n × { sex code uint8 | age-band code uint8 | offset uint32 }
//	order    n × report index uint32
//
// Rows follow the reports' input order. The codes are a strata.Row's;
// the offset is where the report's body starts inside the reports
// section payload. Order lists the report indices sorted by PrimaryID,
// equal IDs in input order. Decode of a v3 file checks every row, offset and order entry against
// the section bounds and keeps the report bodies encoded: drill-down
// decodes one body, and demographics read only the rows. v1 and v2
// files decode every report, as before; the version field decides.
//
// # Decoded memory
//
// Decode gives the dictionary and signals sections one backing string
// each, copied from the payload. Dictionary names, signal drug and
// reaction names, report IDs, SOCs and knowledge-base fields are
// substrings of it. Itemsets, string
// lists, cluster levels and level rules are carved from per-decode
// chunks, each with capacity equal to its length, so an append
// reallocates. A decoded quarter therefore costs a few dozen
// allocations for those values instead of one per value, and all of
// them die together with the quarter. A consumer that keeps a decoded
// string or list beyond the quarter's lifetime must clone it, or one
// name pins the whole section: trend.Assemble copies the names its
// trajectories keep. Reports stay caller-owned copies in every version.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"maras/internal/assoc"
	"maras/internal/audit"
	"maras/internal/cleaning"
	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/knowledge"
	"maras/internal/mcac"
	"maras/internal/meddra"
	"maras/internal/resilience"
	"maras/internal/strata"
	"maras/internal/txdb"
	"maras/internal/types"
)

// Version is the snapshot format version this package writes. Readers
// accept every version back to minVersion.
const (
	Version    = 3
	minVersion = 1
)

// magic identifies a MARAS snapshot file.
var magic = [4]byte{'M', 'R', 'S', 'N'}

// Ext is the conventional snapshot file extension the Registry scans
// for ("2014Q1" + Ext).
const Ext = ".maras"

// Typed decode errors. Callers distinguish "not a snapshot at all"
// (ErrBadMagic), "a snapshot from a format we don't speak"
// (ErrVersion), and "a snapshot damaged in storage or transit"
// (ErrCorrupt) — all via errors.Is.
var (
	ErrBadMagic = errors.New("store: not a MARAS snapshot (bad magic)")
	ErrVersion  = errors.New("store: unsupported snapshot version")
	ErrCorrupt  = errors.New("store: corrupt snapshot")
)

// Section IDs.
const (
	secMeta    uint16 = 1 // quarter label, save time
	secStats   uint16 = 2 // txdb + cleaning stats, rule-space counts
	secDict    uint16 = 3 // dictionary entries in ID order
	secSignals uint16 = 4 // ranked signals with full MCAC clusters
	secReports uint16 = 5 // raw reports (drill-down + demographics)
	secQuality uint16 = 6 // ingest quality metrics (v2+)
	secIndex   uint16 = 7 // per-report strata, body offsets, PrimaryID order (v3+)
)

// qualityFormat sub-versions the quality payload independently of the
// file version, so the report can grow fields without a full format
// bump; unknown sub-versions are ignored (quality recomputed on load).
const qualityFormat = 1

// Snapshot is one persisted quarter: the label it was mined from,
// when it was saved, the rehydrated analysis, the quarter's ingest
// quality metrics, and the length of the encoding it was decoded
// from. Quality is always non-nil after a successful decode —
// persisted for v2+ files, recomputed from the analysis for v1 files —
// and carries metrics only (no findings/verdict: those depend on
// serve-time thresholds; see audit.EvaluateQuality).
type Snapshot struct {
	Label    string
	SavedAt  time.Time
	Analysis *core.Analysis
	Quality  *audit.QualityReport
	Size     int64
}

// Write encodes label's completed analysis to w in the snapshot
// format.
func Write(w io.Writer, label string, a *core.Analysis) error {
	return write(w, label, a, time.Now())
}

func write(w io.Writer, label string, a *core.Analysis, savedAt time.Time) error {
	return writeVersion(w, label, a, savedAt, Version)
}

// writeVersion encodes at a specific format version. Only tests write
// anything below Version — it exists so backward-compatibility tests
// exercise genuine old-format bytes instead of hand-forged ones.
func writeVersion(w io.Writer, label string, a *core.Analysis, savedAt time.Time, version uint16) error {
	var e enc
	e.buf = append(e.buf, magic[:]...)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, version)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, 0) // flags

	e.section(secMeta, func(e *enc) {
		e.str(label)
		e.i64(savedAt.Unix())
	})
	e.section(secStats, func(e *enc) {
		e.i64(int64(a.Stats.Reports))
		e.i64(int64(a.Stats.Drugs))
		e.i64(int64(a.Stats.Reactions))
		e.f64(a.Stats.AvgDrugs)
		e.f64(a.Stats.AvgReacs)
		cs := a.Cleaning
		for _, v := range []int{cs.ReportsIn, cs.ReportsOut, cs.DuplicateReports, cs.EmptyReports,
			cs.DrugSpellingsFixed, cs.ReacSpellingsFixed, cs.WithinReportDupDrugs, cs.WithinReportDupReacs} {
			e.i64(int64(v))
		}
		e.i64(int64(a.Counts.TotalRules))
		e.i64(int64(a.Counts.FilteredRules))
		e.i64(int64(a.Counts.MCACs))
	})
	e.section(secDict, func(e *enc) {
		dict := a.Dict()
		n := dict.Len()
		e.uv(uint64(n))
		for i := 0; i < n; i++ {
			it := types.Item(i)
			e.u8(uint8(dict.Domain(it)))
			e.str(dict.Name(it))
		}
	})
	e.section(secSignals, func(e *enc) {
		e.uv(uint64(len(a.Signals)))
		for i := range a.Signals {
			e.signal(&a.Signals[i])
		}
	})
	var offsets []uint32
	e.section(secReports, func(e *enc) {
		start := len(e.buf)
		reports := a.RawReports()
		e.uv(uint64(len(reports)))
		offsets = make([]uint32, len(reports))
		for i := range reports {
			offsets[i] = uint32(len(e.buf) - start)
			e.report(&reports[i])
		}
	})
	if version >= 2 {
		e.section(secQuality, func(e *enc) {
			e.quality(audit.ComputeQuality(label, a))
		})
	}
	if version >= 3 {
		e.section(secIndex, func(e *enc) {
			idx := a.ReportIndex()
			e.uv(uint64(len(offsets)))
			for i, off := range offsets {
				e.u8(idx.Strata[i].Sex)
				e.u8(idx.Strata[i].Age)
				e.u32(off)
			}
			for _, i := range idx.ByID {
				e.u32(i)
			}
		})
	}

	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf))
	_, err := w.Write(e.buf)
	return err
}

// WriteFile writes the snapshot to path atomically: the bytes land in
// a temporary file in the same directory which is fsynced and renamed
// over path, so readers only ever see a complete snapshot.
func WriteFile(path, label string, a *core.Analysis) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		return Write(w, label, a)
	})
}

// writeFileAtomic runs emit into a temp file in path's directory, then
// fsyncs and renames it over path — the write-then-rename protocol
// every snapshot producer (local save, replica install) shares. The
// temp name embeds Ext+".tmp", the pattern sweepOrphans reclaims, so a
// crash mid-write can never leave a file readers would discover.
func writeFileAtomic(path string, emit func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if err := emit(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// CreateTemp opens 0600; snapshots are ordinary shareable artifacts.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// The rename itself lives in the directory; fsync it so a crash
	// right after WriteFile returns cannot roll the entry back (or
	// leave a directory pointing at a temp name).
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("store: syncing %s: %w", dir, serr)
	}
	return nil
}

// Read decodes a snapshot from r, verifying magic, version, and the
// CRC-32 trailer before parsing any section.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	return Decode(data)
}

// Open reads the snapshot file at path. It hosts the store/decode
// failpoint: armed, the injected fault presents exactly like a CRC
// mismatch, so the quarantine and breaker paths above can be provoked
// without hand-corrupting files.
func Open(path string) (*Snapshot, error) {
	s, _, err := openFile(path, nil)
	return s, err
}

// fileID identifies the bytes a snapshot file held when it was read:
// the file's stat from the descriptor the bytes came through (device
// and inode, size, modification time) and its CRC-32 trailer. The zero
// value names no file and matches nothing.
type fileID struct {
	info os.FileInfo
	crc  uint32
}

// same reports whether f and g name the same bytes of the same file.
func (f fileID) same(g fileID) bool {
	return f.crc == g.crc && f.matches(g.info)
}

// matches reports whether fi, a later stat of the file's path, still
// describes the file f was read from. A stat carries no CRC, so an
// in-place rewrite that keeps the size and the modification time
// passes here; same, which compares the trailer too, does not.
func (f fileID) matches(fi os.FileInfo) bool {
	return f.info != nil && fi != nil && os.SameFile(f.info, fi) &&
		f.info.Size() == fi.Size() && f.info.ModTime().Equal(fi.ModTime())
}

// openFile is Open that also returns the identity of the bytes it
// decoded. When current is non-nil, it is first asked about the open
// file's identity, read as one stat and one 4-byte read of the CRC
// trailer; if it reports true (the caller already holds a decode of
// exactly these bytes), openFile returns a nil snapshot without
// reading the rest of the file. The failpoint fires before either.
func openFile(path string, current func(fileID) bool) (*Snapshot, fileID, error) {
	if ferr := resilience.Inject(resilience.FPDecode); ferr != nil {
		return nil, fileID{}, fmt.Errorf("%s: %w (%w)", path, ErrCorrupt, ferr)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fileID{}, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, fileID{}, fmt.Errorf("store: %w", err)
	}
	if current != nil && info.Size() >= 4 {
		var tail [4]byte
		if _, err := f.ReadAt(tail[:], info.Size()-4); err == nil {
			id := fileID{info: info, crc: binary.LittleEndian.Uint32(tail[:])}
			if current(id) {
				return nil, id, nil
			}
		}
	}
	// Read to EOF as os.ReadFile does, so a file that grew since the
	// stat is read whole rather than cut short.
	buf := bytes.NewBuffer(make([]byte, 0, info.Size()+bytes.MinRead))
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, fileID{}, fmt.Errorf("store: %w", err)
	}
	data := buf.Bytes()
	s, err := Decode(data)
	if err != nil {
		return nil, fileID{}, fmt.Errorf("%s: %w", path, err)
	}
	// The identity names the bytes just decoded. A file that changed
	// while it was read gets none, so nothing is ever matched to it.
	var id fileID
	if after, err := f.Stat(); err == nil && int64(len(data)) == info.Size() &&
		(fileID{info: info}).matches(after) {
		id = fileID{info: info, crc: binary.LittleEndian.Uint32(data[len(data)-4:])}
	}
	return s, id, nil
}

// CheckBytes verifies a snapshot's envelope — magic, version range,
// and the CRC-32 trailer over everything before it — without parsing
// a single section. It is the verification gate for bytes that arrive
// over the network (replica sync, peer-failover reads): a pass means
// the bytes are exactly what some encoder produced; Decode can still
// reject deeper structural damage, but nothing CheckBytes passes can
// have flipped in transit.
func CheckBytes(data []byte) error {
	if len(data) < len(magic) || [4]byte(data[:4]) != magic {
		return ErrBadMagic
	}
	if len(data) < 12 { // header + trailer
		return fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v < minVersion || v > Version {
		return fmt.Errorf("%w: file is v%d, reader speaks v%d..v%d", ErrVersion, v, minVersion, Version)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return fmt.Errorf("%w: CRC mismatch (file %08x, computed %08x)", ErrCorrupt, want, got)
	}
	return nil
}

// Manifest is a snapshot's sync-relevant identity, readable without
// decoding the file: the label and save time from the meta section,
// the CRC-32 trailer (the content fingerprint replica merkle trees
// are built over), and the file size. ReadManifest does NOT verify
// the CRC — that would read the whole file; fetched bytes are
// verified with CheckBytes before installation instead.
type Manifest struct {
	Label   string
	SavedAt time.Time
	CRC     uint32
	Size    int64
}

// manifestHead is how many bytes at the front of a snapshot hold its
// header and meta section, the front read of ReadManifest.
const manifestHead = 4096

// ReadManifest reads path's manifest with two small reads — the
// header plus the meta section at the front, the CRC trailer at the
// back — so inventory scans over large stores stay cheap.
func ReadManifest(path string) (Manifest, error) {
	var m Manifest
	f, err := os.Open(path)
	if err != nil {
		return m, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return m, fmt.Errorf("store: %w", err)
	}
	m.Size = fi.Size()
	if m.Size < 12 {
		return m, fmt.Errorf("%s: %w: truncated header", path, ErrCorrupt)
	}
	// Header + section headers + the meta payload all sit at the front;
	// manifestHead covers any realistic label, and a meta section that
	// somehow runs past it is treated as damage.
	head := make([]byte, min(m.Size-4, manifestHead))
	if _, err := io.ReadFull(f, head); err != nil {
		return m, fmt.Errorf("store: %s: %w", path, err)
	}
	if [4]byte(head[:4]) != magic {
		return m, fmt.Errorf("%s: %w", path, ErrBadMagic)
	}
	if v := binary.LittleEndian.Uint16(head[4:6]); v < minVersion || v > Version {
		return m, fmt.Errorf("%s: %w: file is v%d, reader speaks v%d..v%d", path, ErrVersion, v, minVersion, Version)
	}
	d := &dec{b: head, off: 8}
	for d.err == nil && d.off < len(d.b) {
		id, payload := d.nextSection()
		if d.err != nil || id != secMeta {
			continue
		}
		sd := &dec{b: payload}
		m.Label = sd.str()
		m.SavedAt = time.Unix(sd.i64(), 0)
		if sd.err != nil {
			return m, fmt.Errorf("%s: %w: meta section: %v", path, ErrCorrupt, sd.err)
		}
		var tail [4]byte
		if _, err := f.ReadAt(tail[:], m.Size-4); err != nil {
			return m, fmt.Errorf("store: %s: %w", path, err)
		}
		m.CRC = binary.LittleEndian.Uint32(tail[:])
		return m, nil
	}
	return m, fmt.Errorf("%s: %w: meta section not found", path, ErrCorrupt)
}

// Decode parses a complete in-memory snapshot. A v3 snapshot keeps
// its report bodies encoded in data, which the caller must therefore
// not modify afterwards; earlier versions decode every report.
func Decode(data []byte) (*Snapshot, error) {
	if err := CheckBytes(data); err != nil {
		return nil, err
	}
	body := data[:len(data)-4]
	version := binary.LittleEndian.Uint16(data[4:6])

	s := &Snapshot{Size: int64(len(data))}
	var (
		dict           *types.Dictionary
		stats          txdb.Stats
		cstats         cleaning.Stats
		counts         core.Counts
		signals        []core.Signal
		reports        *core.ReportSet
		reportsPayload []byte
		indexPayload   []byte
		quality        *audit.QualityReport
		meta           bool
	)

	d := &dec{b: body, off: 8}
	for d.err == nil && d.off < len(d.b) {
		id, payload := d.nextSection()
		if d.err != nil {
			break
		}
		sd := &dec{b: payload}
		if id == secDict || id == secSignals {
			// One copy of the payload backs the section's strings, so
			// nothing decoded aliases data.
			sd.shared, sd.s = true, string(payload)
		}
		switch id {
		case secMeta:
			// ReadManifest reads the first meta section within the
			// front manifestHead bytes; any other shape is damage.
			switch {
			case meta:
				sd.fail("repeated meta section")
			case d.off > manifestHead:
				sd.fail("meta section ends at offset %d, past the first %d bytes", d.off, manifestHead)
			}
			meta = true
			s.Label = sd.str()
			s.SavedAt = time.Unix(sd.i64(), 0)
		case secStats:
			stats.Reports = int(sd.i64())
			stats.Drugs = int(sd.i64())
			stats.Reactions = int(sd.i64())
			stats.AvgDrugs = sd.f64()
			stats.AvgReacs = sd.f64()
			for _, p := range []*int{&cstats.ReportsIn, &cstats.ReportsOut, &cstats.DuplicateReports,
				&cstats.EmptyReports, &cstats.DrugSpellingsFixed, &cstats.ReacSpellingsFixed,
				&cstats.WithinReportDupDrugs, &cstats.WithinReportDupReacs} {
				*p = int(sd.i64())
			}
			counts.TotalRules = int(sd.i64())
			counts.FilteredRules = int(sd.i64())
			counts.MCACs = int(sd.i64())
		case secDict:
			dict = sd.dict()
		case secSignals:
			// Rendering looks every cluster item's name up by ID, so
			// the dictionary comes first and bounds the items.
			if dict == nil {
				sd.fail("signals precede the dictionary")
			} else {
				sd.items = dict.Len()
				signals = sd.signals()
			}
		case secReports:
			if version >= 3 {
				reportsPayload = payload
			} else {
				reports = core.ReportList(sd.reports())
			}
		case secQuality:
			quality = sd.quality()
		case secIndex:
			indexPayload = payload
		default:
			// Unknown section: skip (forward compatibility).
		}
		if sd.err != nil {
			return nil, fmt.Errorf("%w: section %d: %v", ErrCorrupt, id, sd.err)
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, d.err)
	}
	if !meta {
		return nil, fmt.Errorf("%w: missing meta section", ErrCorrupt)
	}
	if dict == nil {
		return nil, fmt.Errorf("%w: missing dictionary section", ErrCorrupt)
	}
	if version >= 3 {
		if reportsPayload == nil || indexPayload == nil {
			return nil, fmt.Errorf("%w: missing reports or report index section", ErrCorrupt)
		}
		sd := &dec{b: indexPayload}
		bodies, idx := sd.reportIndex(reportsPayload)
		if sd.err != nil {
			return nil, fmt.Errorf("%w: section %d: %v", ErrCorrupt, secIndex, sd.err)
		}
		reports = core.EncodedReports(bodies, idx)
	}
	s.Analysis = core.Rehydrate(stats, cstats, counts, signals, dict, reports)
	if quality == nil {
		// v1 file, or a quality payload from a future sub-format:
		// recompute from the analysis we just rehydrated.
		quality = audit.ComputeQuality(s.Label, s.Analysis)
	}
	quality.Label = s.Label
	s.Quality = quality
	return s, nil
}

// ---------------------------------------------------------------------------
// encoder

type enc struct{ buf []byte }

func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) uv(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *enc) i64(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *enc) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *enc) str(s string) {
	e.uv(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *enc) strs(ss []string) {
	e.uv(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *enc) items(set types.Itemset) {
	e.uv(uint64(len(set)))
	for _, it := range set {
		e.u32(uint32(it))
	}
}

// section appends a length-prefixed section: the payload is built
// first so its exact byte length can prefix it.
func (e *enc) section(id uint16, body func(*enc)) {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, id)
	e.buf = binary.LittleEndian.AppendUint16(e.buf, 0) // reserved
	lenAt := len(e.buf)
	e.u32(0) // patched below
	start := len(e.buf)
	body(e)
	binary.LittleEndian.PutUint32(e.buf[lenAt:], uint32(len(e.buf)-start))
}

func (e *enc) rule(r *assoc.Rule) {
	e.items(r.Antecedent)
	e.items(r.Consequent)
	e.i64(int64(r.Support))
	e.i64(int64(r.AntSupport))
	e.i64(int64(r.ConSupport))
	e.f64(r.Confidence)
	e.f64(r.Lift)
}

func (e *enc) signal(s *core.Signal) {
	e.i64(int64(s.Rank))
	e.f64(s.Score)
	e.strs(s.Drugs)
	e.strs(s.Reactions)
	e.i64(int64(s.Support))
	e.f64(s.Confidence)
	e.f64(s.Lift)
	e.u8(uint8(s.SupportType))
	e.f64(s.SeriousShare)
	socs := make([]string, len(s.SOCs))
	for i, c := range s.SOCs {
		socs[i] = string(c)
	}
	e.strs(socs)
	e.strs(s.ReportIDs)
	if s.Known != nil {
		e.u8(1)
		e.strs(s.Known.Drugs)
		e.strs(s.Known.Reactions)
		e.u8(uint8(s.Known.Severity))
		e.str(s.Known.Mechanism)
		e.str(s.Known.Source)
	} else {
		e.u8(0)
	}
	// Cluster: target rule + contextual levels.
	e.rule(&s.Cluster.Target)
	e.uv(uint64(len(s.Cluster.Levels)))
	for li := range s.Cluster.Levels {
		l := &s.Cluster.Levels[li]
		e.i64(int64(l.Cardinality))
		e.uv(uint64(len(l.Rules)))
		for ri := range l.Rules {
			e.rule(&l.Rules[ri])
		}
	}
}

// hist encodes a fixed-bucket histogram: bounds then counts, each
// length-prefixed (counts carries its own length so the two halves can
// evolve independently).
func (e *enc) hist(h audit.Hist) {
	e.uv(uint64(len(h.Bounds)))
	for _, b := range h.Bounds {
		e.f64(b)
	}
	e.uv(uint64(len(h.Counts)))
	for _, c := range h.Counts {
		e.i64(c)
	}
}

// quality encodes the metric half of a quality report (findings and
// verdict are serve-time derivations and never persisted). The label
// is omitted: the meta section owns it.
func (e *enc) quality(q *audit.QualityReport) {
	e.u8(qualityFormat)
	e.i64(int64(q.ReportsIn))
	e.i64(int64(q.Reports))
	e.f64(q.DropRate)
	e.f64(q.DedupRate)
	e.f64(q.EmptyRate)
	e.i64(int64(q.Drugs))
	e.i64(int64(q.Reactions))
	e.i64(int64(q.DictItems))
	e.f64(q.AvgDrugs)
	e.f64(q.AvgReacs)
	e.i64(int64(q.Signals))
	e.hist(q.SupportHist)
	e.hist(q.ScoreHist)
}

func (e *enc) report(r *faers.Report) {
	e.str(r.PrimaryID)
	e.str(r.CaseID)
	e.str(r.ReportCode)
	e.str(r.Sex)
	e.str(r.Age)
	e.str(r.AgeCode)
	e.str(r.Country)
	e.str(r.EventDate)
	e.strs(r.Drugs)
	e.strs(r.DrugRoles)
	e.strs(r.Reactions)
	e.strs(r.Outcomes)
}

// ---------------------------------------------------------------------------
// decoder

// dec is a bounds-checked cursor over a byte slice. The first decode
// that runs past the end (or reads an impossible count) latches err;
// every later read no-ops, so call sites stay linear and the caller
// checks err once.
type dec struct {
	b   []byte
	off int
	err error
	// items is the number of items the dictionary issued; itemset
	// rejects any other ID.
	items int
	// shared marks a section whose decoded values share per-decode
	// backing: str returns substrings of s, which holds b as one
	// string, and strs carves its lists from strChunk.
	shared bool
	s      string
	// Chunks that itemsets, string lists, cluster levels and rules are
	// carved from; see carve.
	itemChunk  []types.Item
	strChunk   []string
	levelChunk []mcac.Level
	ruleChunk  []assoc.Rule
}

// Chunk lengths, in elements, of the stores carve cuts slices from:
// about 16 KiB each.
const (
	itemChunkLen  = 4096
	strChunkLen   = 1024
	levelChunkLen = 512
	ruleChunkLen  = 192
)

// carve returns n zeroed elements cut from *chunk, starting a new
// chunk of size elements when the current one has too little room
// left; a request longer than size gets a slice of its own. n must be
// a count already bounded against the bytes left (see count), so a
// corrupt file cannot drive a large allocation. The result's capacity
// is n: an append to it reallocates instead of writing into the next
// slice carved.
func carve[T any](chunk *[]T, n, size int) []T {
	if n > size {
		return make([]T, n)
	}
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, size)
	}
	*chunk = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("truncated at offset %d (need %d bytes, have %d)", d.off, n, len(d.b)-d.off)
		return false
	}
	return true
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) f64() float64 {
	if !d.need(8) {
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// str reads a length-prefixed string: a substring of the section's
// backing string when the decoder is shared, else a copy of its own.
func (d *dec) str() string {
	n := d.uv()
	if !d.need(int(n)) {
		return ""
	}
	var s string
	if d.shared {
		s = d.s[d.off : d.off+int(n)]
	} else {
		s = string(d.b[d.off : d.off+int(n)])
	}
	d.off += int(n)
	return s
}

// count reads an element count and sanity-bounds it against the bytes
// remaining (each element costs at least minBytes), so a corrupted
// count can never drive a giant allocation. The bound divides instead
// of multiplying, so no count can overflow past it.
func (d *dec) count(minBytes int) int {
	n := d.uv()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.off)/uint64(minBytes) {
		d.fail("impossible count %d at offset %d", n, d.off)
		return 0
	}
	return int(n)
}

// strs reads a string list; a shared decoder carves the list from its
// chunk and its strings from the backing string, any other allocates
// the list and every string for it alone.
func (d *dec) strs() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	var out []string
	if d.shared {
		out = carve(&d.strChunk, n, strChunkLen)
	} else {
		out = make([]string, n)
	}
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// itemset reads an itemset carved from the item chunk; itemsets occur
// only in the signals section.
func (d *dec) itemset() types.Itemset {
	n := d.count(4)
	if n == 0 {
		return nil
	}
	out := types.Itemset(carve(&d.itemChunk, n, itemChunkLen))
	for i := range out {
		out[i] = types.Item(d.u32())
		if out[i] < 0 || int(out[i]) >= d.items {
			d.fail("item %d outside the %d-item dictionary", out[i], d.items)
			return nil
		}
	}
	return out
}

// nextSection reads one section header from the body cursor and
// returns its payload slice.
func (d *dec) nextSection() (uint16, []byte) {
	id := d.u16()
	d.u16() // reserved
	n := d.u32()
	if !d.need(int(n)) {
		return 0, nil
	}
	payload := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return id, payload
}

func (d *dec) dict() *types.Dictionary {
	n := d.count(2)
	dict := types.NewDictionarySized(n)
	for i := 0; i < n && d.err == nil; i++ {
		dom := types.Domain(d.u8())
		name := d.str()
		switch {
		case d.err != nil:
		case dom != types.DomainDrug && dom != types.DomainReaction:
			d.fail("item %d: unknown domain %d", i, dom)
		case !dict.Add(name, dom):
			d.fail("item %d: name %q repeats an earlier item", i, name)
		}
	}
	return dict
}

func (d *dec) rule() assoc.Rule {
	var r assoc.Rule
	r.Antecedent = d.itemset()
	r.Consequent = d.itemset()
	r.Support = int(d.i64())
	r.AntSupport = int(d.i64())
	r.ConSupport = int(d.i64())
	r.Confidence = d.f64()
	r.Lift = d.f64()
	return r
}

func (d *dec) signals() []core.Signal {
	n := d.count(8)
	out := make([]core.Signal, n)
	clusters := make([]mcac.Cluster, n)
	for i := range out {
		if d.err != nil {
			return out
		}
		s := &out[i]
		s.Rank = int(d.i64())
		s.Score = d.f64()
		s.Drugs = d.strs()
		s.Reactions = d.strs()
		s.Support = int(d.i64())
		s.Confidence = d.f64()
		s.Lift = d.f64()
		s.SupportType = assoc.SupportType(d.u8())
		s.SeriousShare = d.f64()
		if m := d.count(1); m > 0 {
			s.SOCs = make([]meddra.SOC, m)
			for j := range s.SOCs {
				s.SOCs[j] = meddra.SOC(d.str())
			}
		}
		s.ReportIDs = d.strs()
		if d.u8() == 1 {
			s.Known = &knowledge.Interaction{
				Drugs:     d.strs(),
				Reactions: d.strs(),
				Severity:  knowledge.Severity(d.u8()),
				Mechanism: d.str(),
				Source:    d.str(),
			}
		}
		c := &clusters[i]
		c.Target = d.rule()
		if nLevels := d.count(2); nLevels > 0 {
			c.Levels = carve(&d.levelChunk, nLevels, levelChunkLen)
			for li := range c.Levels {
				l := &c.Levels[li]
				l.Cardinality = int(d.i64())
				if nRules := d.count(8); nRules > 0 {
					l.Rules = carve(&d.ruleChunk, nRules, ruleChunkLen)
					for ri := range l.Rules {
						l.Rules[ri] = d.rule()
					}
				}
			}
		}
		s.Cluster = c
	}
	return out
}

func (d *dec) hist() audit.Hist {
	var h audit.Hist
	if n := d.count(8); n > 0 {
		h.Bounds = make([]float64, n)
		for i := range h.Bounds {
			h.Bounds[i] = d.f64()
		}
	}
	if n := d.count(1); n > 0 {
		h.Counts = make([]int64, n)
		for i := range h.Counts {
			h.Counts[i] = d.i64()
		}
	}
	return h
}

// quality decodes the quality section. An unknown payload sub-format
// returns nil (caller recomputes from the analysis) rather than an
// error, so future writers can evolve the payload freely.
func (d *dec) quality() *audit.QualityReport {
	if d.u8() != qualityFormat {
		return nil
	}
	q := &audit.QualityReport{}
	q.ReportsIn = int(d.i64())
	q.Reports = int(d.i64())
	q.DropRate = d.f64()
	q.DedupRate = d.f64()
	q.EmptyRate = d.f64()
	q.Drugs = int(d.i64())
	q.Reactions = int(d.i64())
	q.DictItems = int(d.i64())
	q.AvgDrugs = d.f64()
	q.AvgReacs = d.f64()
	q.Signals = int(d.i64())
	q.SupportHist = d.hist()
	q.ScoreHist = d.hist()
	return q
}

// minReportBytes is the smallest encoding of a report: twelve empty
// strings and lists, one length byte each.
const minReportBytes = 12

func (d *dec) reports() []faers.Report {
	n := d.count(minReportBytes)
	out := make([]faers.Report, n)
	for i := range out {
		if d.err != nil {
			return out
		}
		out[i] = d.report()
	}
	return out
}

func (d *dec) report() faers.Report {
	var r faers.Report
	r.PrimaryID = d.str()
	r.CaseID = d.str()
	r.ReportCode = d.str()
	r.Sex = d.str()
	r.Age = d.str()
	r.AgeCode = d.str()
	r.Country = d.str()
	r.EventDate = d.str()
	r.Drugs = d.strs()
	r.DrugRoles = d.strs()
	r.Reactions = d.strs()
	r.Outcomes = d.strs()
	return r
}

// reportIndex decodes a v3 report index section against the reports
// section payload it describes. Every row's strata codes, every body
// offset and every permutation entry is checked here, and so is each
// body's PrimaryID length and the permutation's order, so the lazy
// reads that follow stay in bounds whatever the file holds.
func (d *dec) reportIndex(reports []byte) (*reportBodies, core.ReportIndex) {
	var idx core.ReportIndex
	rd := &dec{b: reports}
	n := rd.count(minReportBytes)
	if rd.err != nil {
		d.fail("reports section: %v", rd.err)
		return nil, idx
	}
	if m := d.count(10); d.err == nil && m != n {
		d.fail("index holds %d reports, reports section %d", m, n)
	}
	if d.err != nil {
		return nil, idx
	}
	bodies := &reportBodies{payload: reports, offs: make([]uint32, n)}
	idx.Strata = make(strata.Column, n)
	prev := rd.off - 1 // the first body starts after the count
	for i := 0; i < n && d.err == nil; i++ {
		row := strata.Row{Sex: d.u8(), Age: d.u8()}
		off := d.u32()
		switch {
		case d.err != nil:
		case !row.Valid():
			d.fail("report %d: strata codes %d/%d", i, row.Sex, row.Age)
		case int64(off) <= int64(prev) || int64(off) >= int64(len(reports)):
			d.fail("report %d: body offset %d not in (%d, %d)", i, off, prev, len(reports))
		default:
			idx.Strata[i], bodies.offs[i], prev = row, off, int(off)
		}
	}
	// The order is a permutation, so walking it reads every body's
	// PrimaryID exactly once; the previous entry's ID is kept for the
	// order check.
	idx.ByID = make([]uint32, n)
	seen := make([]bool, n)
	var prevID []byte
	for k := 0; k < n && d.err == nil; k++ {
		i := d.u32()
		if d.err != nil {
			break
		}
		if int64(i) >= int64(n) || seen[i] {
			d.fail("order entry %d: report %d out of range or repeated", k, i)
			break
		}
		body := bodies.body(int(i))
		l, w := binary.Uvarint(body)
		if w <= 0 || l > uint64(len(body)-w) {
			d.fail("report %d: PrimaryID overruns its body", i)
			break
		}
		id := body[w : w+int(l)]
		if k > 0 {
			if c := bytes.Compare(prevID, id); c > 0 || c == 0 && idx.ByID[k-1] > i {
				d.fail("order entry %d: report %d out of PrimaryID order", k, i)
				break
			}
		}
		seen[i], idx.ByID[k], prevID = true, i, id
	}
	return bodies, idx
}

// reportBodies is a v3 reports section kept encoded: the verified
// section payload and where each report's body starts in it. It is the
// core.ReportSource of a v3 snapshot, decoding one report at a time.
type reportBodies struct {
	payload []byte
	offs    []uint32
}

func (b *reportBodies) Len() int { return len(b.offs) }

// body returns report i's bytes, up to where the next report starts.
func (b *reportBodies) body(i int) []byte {
	end := len(b.payload)
	if i+1 < len(b.offs) {
		end = int(b.offs[i+1])
	}
	return b.payload[b.offs[i]:end]
}

// primaryID returns report i's PrimaryID bytes in place; reportIndex
// checked that they lie within the body.
func (b *reportBodies) primaryID(i int) []byte {
	body := b.body(i)
	n, k := binary.Uvarint(body)
	return body[k : k+int(n)]
}

func (b *reportBodies) ComparePrimaryID(i int, id string) int {
	switch p := b.primaryID(i); {
	case string(p) < id:
		return -1
	case string(p) > id:
		return 1
	}
	return 0
}

func (b *reportBodies) Report(i int) (faers.Report, bool) {
	d := &dec{b: b.body(i)}
	r := d.report()
	return r, d.err == nil
}
