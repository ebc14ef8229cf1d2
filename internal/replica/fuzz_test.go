package replica

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzLocal is the fixed local inventory FuzzInventory diffs against.
var fuzzLocal = []Leaf{
	mkLeaf("2014Q1", 11, 100), mkLeaf("2014Q2", 22, 200), mkLeaf("2014Q4", 44, 400),
}

// FuzzInventory feeds peer bytes through the inventory decoder, the
// merkle build and the diff against a fixed local tree. A payload is
// either rejected with an error or yields a diff that names only
// leaves the remote inventory advertised, each one a label the local
// tree lacks or a differing copy the remote wins.
func FuzzInventory(f *testing.F) {
	for _, inv := range []Inventory{
		{},
		{Node: "b", Leaves: fuzzLocal},
		{Node: "b", Leaves: []Leaf{mkLeaf("2014Q1", 12, 100), mkLeaf("2014Q3", 33, 300)}},
		{Node: "b", Leaves: []Leaf{mkLeaf("2014Q2", 21, 201), mkLeaf("2014Q2", 23, 199), {Label: ""}}},
	} {
		b, err := json.Marshal(inv)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"leaves":[{"label":"2014Q4","crc":4294967295,"size":-1,"saved_at":-9223372036854775808}]}`))
	f.Add([]byte(`{"leaves":null}`))
	f.Add([]byte(`[`))
	local := BuildTree(fuzzLocal)
	localBy := map[string]Leaf{}
	for _, l := range fuzzLocal {
		localBy[l.Label] = l
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inv, err := decodeInventory(bytes.NewReader(data))
		if err != nil {
			return
		}
		advertised := map[Leaf]bool{}
		for _, l := range inv.Leaves {
			advertised[l] = true
		}
		for _, l := range Diff(local, BuildTree(inv.Leaves)) {
			if !advertised[l] {
				t.Fatalf("diff names %+v, which the remote inventory does not hold", l)
			}
			if ll, ok := localBy[l.Label]; ok && (ll.CRC == l.CRC || !remoteWins(ll, l)) {
				t.Fatalf("diff fetches %+v over the local %+v it does not beat", l, ll)
			}
		}
	})
}
