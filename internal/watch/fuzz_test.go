package watch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// resealWatchlist recomputes the CRC-32 trailer over everything before
// it, so a mutated snapshot reaches the field parsers.
func resealWatchlist(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	return data
}

// FuzzWatchlistDecode throws bytes at the watchlist snapshot reader,
// with the CRC trailer left as is or resealed after the mutation (the
// bool). The contract: decode never panics, every failure is one of
// ErrBadMagic, ErrVersion or ErrCorrupt, and every success round-trips
// through SaveFile's encoder: the lists re-encode, the encoding decodes
// again, and re-encodes to the same bytes. Seeds are SaveFile output
// (empty and populated), truncations, and resealed files with a bumped
// version, a huge list count, an overlong string length, an unknown
// severity floor and unknown flag bits.
func FuzzWatchlistDecode(f *testing.F) {
	dir := f.TempDir()
	saved := func(name string, lists []*Watchlist) []byte {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, lists); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	empty := saved("empty.mrwl", nil)
	full := saved("full.mrwl", []*Watchlist{
		{
			ID: "wl-1", User: "alice", Name: "bleeding",
			Drugs: []string{"ASPIRIN", "WARFARIN"}, Reactions: []string{"HAEMORRHAGE"},
			MinScore: 0.5, MinSupport: 10, SeverityFloor: "severe",
			RareOnly: true, CreatedAt: time.UnixMilli(1700000000123).UTC(),
		},
		{ID: "wl-2", User: "bob", Reactions: []string{"RASH"}, UnexpectedOnly: true, MinScore: math.Inf(1)},
	})
	f.Add(empty, false)
	f.Add(full, false)
	f.Add(full[:len(full)/2], false)
	f.Add(full[:len(full)-1], false)
	f.Add(full[:11], false)
	f.Add([]byte{}, false)
	f.Add([]byte("MRWL"), false)
	mutate := func(at int, b ...byte) []byte {
		m := bytes.Clone(full)
		copy(m[at:], b)
		return resealWatchlist(m)
	}
	f.Add(mutate(4, 2, 0), true)                         // version 2
	f.Add(mutate(8, 0xff, 0xff, 0xff, 0xff, 0x0f), true) // list count ~2^35
	f.Add(mutate(9, 0xff, 0xff, 0xff, 0xff, 0x0f), true) // ID length past the end
	f.Add(mutate(len(full)-4-8-2, 9), true)              // severity floor 9
	f.Add(mutate(len(full)-4-8-1, 0xfc), true)           // unknown flag bits
	flipped := bytes.Clone(full)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped, false) // CRC breaks

	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal {
			data = resealWatchlist(bytes.Clone(data))
		}
		lists, err := decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		enc, err := encode(lists)
		if err != nil {
			t.Fatalf("decoded lists do not re-encode: %v", err)
		}
		again, err := decode(enc)
		if err != nil {
			t.Fatalf("re-encoded lists do not decode: %v", err)
		}
		if len(again) != len(lists) {
			t.Fatalf("round trip kept %d of %d lists", len(again), len(lists))
		}
		enc2, err := encode(again)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip is not stable (err %v)", err)
		}
	})
}
