package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"maras/internal/assoc"
	"maras/internal/mcac"
	"maras/internal/types"
)

// withCount replaces the uvarint at payload offset off of section id
// with v, patches the section's length and reseals the CRC, so the
// file passes CheckBytes and only the count is wrong.
func withCount(data []byte, id uint16, off int, v uint64) []byte {
	at := sectionAt(data, id)
	p := at + 8 + off
	_, k := binary.Uvarint(data[p:])
	out := binary.AppendUvarint(bytes.Clone(data[:p]), v)
	grown := len(out) - p - k
	out = append(out, data[p+k:]...)
	n := binary.LittleEndian.Uint32(out[at+4:])
	binary.LittleEndian.PutUint32(out[at+4:], n+uint32(grown))
	return reseal(out)
}

// countOffsets walks the first encoded signal and returns the payload
// offset of each kind of count it holds, by name.
func countOffsets(t testing.TB, data []byte) map[string]int {
	t.Helper()
	at := sectionAt(data, secSignals)
	length := int(binary.LittleEndian.Uint32(data[at+4:]))
	d := &dec{b: data[at+8 : at+8+length], items: math.MaxInt32}
	offs := map[string]int{"signal list": 0}
	d.count(8)
	d.i64()
	d.f64()
	offs["drug list"] = d.off
	d.strs()
	d.strs()
	d.i64()
	d.f64()
	d.f64()
	d.u8()
	d.f64()
	offs["SOC list"] = d.off
	d.strs()
	offs["report-ID list"] = d.off
	d.strs()
	if d.u8() == 1 {
		d.strs()
		d.strs()
		d.u8()
		d.str()
		d.str()
	}
	offs["itemset"] = d.off
	d.rule()
	offs["level list"] = d.off
	d.count(2)
	d.i64()
	offs["level rules"] = d.off
	if d.err != nil {
		t.Fatal(d.err)
	}
	return offs
}

// TestDecodeRejectsHugeCounts: counts so large that count's old
// multiplied bound wrapped (and make then panicked) are rejected as
// corruption wherever the format holds a count.
func TestDecodeRejectsHugeCounts(t *testing.T) {
	data := encodeVersion(t, synthAnalysis(t), Version)
	type pos struct {
		id  uint16
		off int
	}
	where := map[string]pos{"dictionary": {secDict, 0}}
	for name, off := range countOffsets(t, data) {
		where[name] = pos{secSignals, off}
	}
	for name, p := range where {
		for _, v := range []uint64{1 << 63, 1<<62 + 1, math.MaxUint64} {
			if _, err := Decode(withCount(data, p.id, p.off, v)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s count %d: got %v, want ErrCorrupt", name, v, err)
			}
		}
	}
}

// TestDecodedSlicesDoNotAlias: a decoded quarter's itemsets, string
// lists, levels and level rules are carved from shared chunks. An
// append to any of them must reallocate, never write into its
// neighbour, so re-encoding after appending to every one still
// reproduces the file.
func TestDecodedSlicesDoNotAlias(t *testing.T) {
	orig := encodeVersion(t, servedQuarter(t), Version)
	snap, err := Decode(orig)
	if err != nil {
		t.Fatal(err)
	}
	an := snap.Analysis
	if again := encodeVersion(t, an, Version); !bytes.Equal(again, orig) {
		t.Fatal("re-encoding before any append differs")
	}
	strs := func(l []string) { _ = append(l, "ALIASED") }
	items := func(s types.Itemset) { _ = append(s, 0) }
	rule := func(r *assoc.Rule) {
		items(r.Antecedent)
		items(r.Consequent)
	}
	known := 0
	for i := range an.Signals {
		s := &an.Signals[i]
		strs(s.Drugs)
		strs(s.Reactions)
		strs(s.ReportIDs)
		_ = append(s.SOCs, "ALIASED")
		if s.Known != nil {
			known++
			strs(s.Known.Drugs)
			strs(s.Known.Reactions)
		}
		c := s.Cluster
		rule(&c.Target)
		_ = append(c.Levels, mcac.Level{Cardinality: 99})
		for li := range c.Levels {
			l := &c.Levels[li]
			_ = append(l.Rules, assoc.Rule{Support: 99})
			for ri := range l.Rules {
				rule(&l.Rules[ri])
			}
		}
	}
	if known == 0 {
		t.Fatal("fixture: no signal carries a knowledge-base hit")
	}
	if again := encodeVersion(t, an, Version); !bytes.Equal(again, orig) {
		t.Error("an append to a decoded slice reached a neighbouring slice")
	}
}
