package watch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"time"
)

// Watchlist persistence: a compact binary snapshot with the store's
// durability pattern — serialize fully in memory, CRC-32 trailer,
// write to a temp file in the destination directory, fsync, rename
// over the target, fsync the directory.
//
// Layout (little-endian):
//
//	magic "MRWL" | version u16 | flags u16 (reserved, 0)
//	count uvarint
//	per list:
//	  ID str | User str | Name str
//	  Drugs strs | Reactions strs
//	  MinScore f64 | MinSupport i64
//	  severity floor u8 (0 none .. 3 severe)
//	  flags u8 (bit0 RareOnly, bit1 UnexpectedOnly)
//	  CreatedAt i64 UnixMilli (0 = zero time)
//	crc32(IEEE) u32 over everything before it
//
// where str = uvarint length + bytes, strs = uvarint count + strs.
var (
	wlMagic = [4]byte{'M', 'R', 'W', 'L'}

	// ErrBadMagic means the file is not a watchlist snapshot.
	ErrBadMagic = errors.New("watch: bad magic")
	// ErrVersion means the snapshot was written by a newer format.
	ErrVersion = errors.New("watch: unsupported snapshot version")
	// ErrCorrupt means the snapshot fails its CRC or is truncated.
	ErrCorrupt = errors.New("watch: corrupt snapshot")
)

const wlVersion = 1

// SaveFile atomically writes the lists to path.
func SaveFile(path string, lists []*Watchlist) error {
	data, err := encode(lists)
	if err != nil {
		return err
	}
	return writeFile(path, data)
}

// encode serializes the lists in the snapshot layout, CRC included.
func encode(lists []*Watchlist) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(wlMagic[:])
	putU16(&buf, wlVersion)
	putU16(&buf, 0)
	putUvarint(&buf, uint64(len(lists)))
	for _, w := range lists {
		putStr(&buf, w.ID)
		putStr(&buf, w.User)
		putStr(&buf, w.Name)
		putStrs(&buf, w.Drugs)
		putStrs(&buf, w.Reactions)
		putF64(&buf, w.MinScore)
		putI64(&buf, int64(w.MinSupport))
		floor, err := parseSeverityFloor(w.SeverityFloor)
		if err != nil {
			return nil, err
		}
		buf.WriteByte(byte(floor))
		var flags byte
		if w.RareOnly {
			flags |= 1
		}
		if w.UnexpectedOnly {
			flags |= 2
		}
		buf.WriteByte(flags)
		var created int64
		if !w.CreatedAt.IsZero() {
			created = w.CreatedAt.UnixMilli()
		}
		putI64(&buf, created)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	return buf.Bytes(), nil
}

// writeFile writes data to path with the store's durability pattern:
// temp file in the destination directory, fsync, rename, fsync the
// directory.
func writeFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(e error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("watch: %w", e)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("watch: %w", err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("watch: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("watch: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// LoadFile reads a snapshot written by SaveFile. A missing file is
// reported via fs.ErrNotExist (callers typically treat it as an empty
// population). Loaded lists are not yet normalized — pass them through
// Index.Add.
func LoadFile(path string) ([]*Watchlist, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decode(data)
}

// decode parses a snapshot held in memory. Every failure is ErrBadMagic,
// ErrVersion or ErrCorrupt.
func decode(data []byte) ([]*Watchlist, error) {
	if len(data) < len(wlMagic)+4+4 {
		return nil, ErrCorrupt
	}
	if !bytes.Equal(data[:4], wlMagic[:]) {
		return nil, ErrBadMagic
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, ErrCorrupt
	}
	r := &wlReader{data: body, off: 4}
	version := r.u16()
	r.u16() // flags, reserved
	if r.err == nil && version != wlVersion {
		return nil, fmt.Errorf("%w: %d", ErrVersion, version)
	}
	count := r.uvarint()
	if r.err != nil {
		return nil, ErrCorrupt
	}
	if count > uint64(len(body)) { // each list costs >= 1 byte
		return nil, ErrCorrupt
	}
	lists := make([]*Watchlist, 0, count)
	for i := uint64(0); i < count; i++ {
		w := &Watchlist{}
		w.ID = r.str()
		w.User = r.str()
		w.Name = r.str()
		w.Drugs = r.strs()
		w.Reactions = r.strs()
		w.MinScore = r.f64()
		w.MinSupport = int(r.i64())
		w.SeverityFloor = severityFloorName(int(r.u8()))
		flags := r.u8()
		w.RareOnly = flags&1 != 0
		w.UnexpectedOnly = flags&2 != 0
		if ms := r.i64(); ms != 0 {
			w.CreatedAt = time.UnixMilli(ms).UTC()
		}
		if r.err != nil {
			return nil, ErrCorrupt
		}
		lists = append(lists, w)
	}
	if r.off != len(r.data) {
		return nil, ErrCorrupt
	}
	return lists, nil
}

func putU16(b *bytes.Buffer, v uint16) {
	var t [2]byte
	binary.LittleEndian.PutUint16(t[:], v)
	b.Write(t[:])
}

func putI64(b *bytes.Buffer, v int64) {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], uint64(v))
	b.Write(t[:])
}

func putF64(b *bytes.Buffer, v float64) {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], math.Float64bits(v))
	b.Write(t[:])
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var t [binary.MaxVarintLen64]byte
	b.Write(t[:binary.PutUvarint(t[:], v)])
}

func putStr(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

func putStrs(b *bytes.Buffer, ss []string) {
	putUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		putStr(b, s)
	}
}

// wlReader decodes with sticky errors so each field read stays a
// one-liner; any short read poisons the rest.
type wlReader struct {
	data []byte
	off  int
	err  error
}

func (r *wlReader) take(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.data) {
		if r.err == nil {
			r.err = ErrCorrupt
		}
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *wlReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wlReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *wlReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *wlReader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *wlReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.off += n
	return v
}

func (r *wlReader) str() string {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.data)-r.off) {
		if r.err == nil {
			r.err = ErrCorrupt
		}
		return ""
	}
	return string(r.take(int(n)))
}

func (r *wlReader) strs() []string {
	n := r.uvarint()
	if r.err != nil || n == 0 || n > uint64(len(r.data)-r.off) {
		if r.err == nil && n != 0 {
			r.err = ErrCorrupt
		}
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.str())
	}
	return out
}
