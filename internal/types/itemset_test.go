package types

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func set(items ...Item) Itemset { return NewItemset(items...) }

func TestNewItemsetNormalizes(t *testing.T) {
	cases := []struct {
		in   []Item
		want Itemset
	}{
		{nil, Itemset{}},
		{[]Item{5}, Itemset{5}},
		{[]Item{3, 1, 2}, Itemset{1, 2, 3}},
		{[]Item{4, 4, 4}, Itemset{4}},
		{[]Item{9, 1, 9, 1, 5}, Itemset{1, 5, 9}},
	}
	for _, c := range cases {
		got := NewItemset(c.in...)
		if !got.Equal(c.want) {
			t.Errorf("NewItemset(%v) = %v, want %v", c.in, got, c.want)
		}
		if !got.IsNormalized() {
			t.Errorf("NewItemset(%v) not normalized: %v", c.in, got)
		}
	}
}

// Normalize sorts in place: it allocates nothing, whatever the order
// and repeats of its input.
func TestNormalizeNoAllocs(t *testing.T) {
	in := Itemset{9, 1, 9, 1, 5, 30, 2, 2, 17, 4}
	buf := make(Itemset, len(in))
	allocs := testing.AllocsPerRun(100, func() {
		copy(buf, in)
		buf.Normalize()
	})
	if allocs != 0 {
		t.Fatalf("Normalize allocates %v times per call", allocs)
	}
	if got := in.Clone().Normalize(); !got.Equal(Itemset{1, 2, 4, 5, 9, 17, 30}) {
		t.Fatalf("Normalize = %v", got)
	}
}

func TestContains(t *testing.T) {
	s := set(2, 4, 6, 8)
	for _, it := range []Item{2, 4, 6, 8} {
		if !s.Contains(it) {
			t.Errorf("Contains(%d) = false, want true", it)
		}
	}
	for _, it := range []Item{1, 3, 5, 7, 9, 100} {
		if s.Contains(it) {
			t.Errorf("Contains(%d) = true, want false", it)
		}
	}
	if Itemset(nil).Contains(1) {
		t.Error("empty set Contains(1) = true")
	}
}

func TestContainsAll(t *testing.T) {
	s := set(1, 3, 5, 7)
	cases := []struct {
		sub  Itemset
		want bool
	}{
		{set(), true},
		{set(1), true},
		{set(7), true},
		{set(3, 7), true},
		{set(1, 3, 5, 7), true},
		{set(2), false},
		{set(1, 2), false},
		{set(1, 3, 5, 7, 9), false},
		{set(0, 1), false},
	}
	for _, c := range cases {
		if got := s.ContainsAll(c.sub); got != c.want {
			t.Errorf("%v.ContainsAll(%v) = %v, want %v", s, c.sub, got, c.want)
		}
	}
}

func TestProperSupersetOf(t *testing.T) {
	if !set(1, 2, 3).ProperSupersetOf(set(1, 3)) {
		t.Error("{1,2,3} should be proper superset of {1,3}")
	}
	if set(1, 2, 3).ProperSupersetOf(set(1, 2, 3)) {
		t.Error("a set is not a proper superset of itself")
	}
	if set(1, 2).ProperSupersetOf(set(1, 3)) {
		t.Error("{1,2} is not a superset of {1,3}")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := set(1, 2, 3, 5)
	b := set(2, 4, 5, 6)
	if got := a.Union(b); !got.Equal(set(1, 2, 3, 4, 5, 6)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(set(2, 5)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); !got.Equal(set(1, 3)) {
		t.Errorf("Minus = %v", got)
	}
	if got := b.Minus(a); !got.Equal(set(4, 6)) {
		t.Errorf("Minus = %v", got)
	}
	if got := a.Without(2); !got.Equal(set(1, 3, 5)) {
		t.Errorf("Without = %v", got)
	}
	if got := a.Without(99); !got.Equal(a) {
		t.Errorf("Without(absent) = %v", got)
	}
}

func TestUnionEmpty(t *testing.T) {
	a := set(1, 2)
	if got := a.Union(nil); !got.Equal(a) {
		t.Errorf("Union(nil) = %v", got)
	}
	if got := Itemset(nil).Union(a); !got.Equal(a) {
		t.Errorf("nil.Union = %v", got)
	}
}

// AppendUnion reuses its buffer and keeps what was already in it.
func TestAppendUnion(t *testing.T) {
	buf := make(Itemset, 0, 8)
	got := AppendUnion(buf, set(1, 3, 5), set(2, 3))
	if !got.Equal(set(1, 2, 3, 5)) || &got[0] != &buf[:1][0] {
		t.Errorf("AppendUnion into an empty buffer = %v", got)
	}
	if got := AppendUnion(set(9), set(1), set(2)); !got.Equal(Itemset{9, 1, 2}) {
		t.Errorf("AppendUnion after 9 = %v", got)
	}
}

func TestKeyUniqueness(t *testing.T) {
	a := set(1, 23)
	b := set(12, 3)
	if a.Key() == b.Key() {
		t.Errorf("keys collide: %q vs %q", a.Key(), b.Key())
	}
	if set(1, 2).Key() != set(2, 1).Key() {
		t.Error("keys should be order-independent after normalization")
	}
}

func TestProperSubsets(t *testing.T) {
	s := set(1, 2, 3)
	var got []string
	s.ProperSubsets(func(sub Itemset) bool {
		got = append(got, sub.Clone().Key())
		return true
	})
	want := []string{"1", "2", "1,2", "3", "1,3", "2,3"}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ProperSubsets = %v, want %v", got, want)
	}
}

func TestProperSubsetsEarlyStop(t *testing.T) {
	s := set(1, 2, 3, 4)
	n := 0
	s.ProperSubsets(func(Itemset) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d subsets, want 3", n)
	}
}

func TestSubsetsOfSize(t *testing.T) {
	s := set(1, 2, 3, 4)
	counts := map[int]int{}
	for k := 0; k <= 5; k++ {
		n := 0
		s.SubsetsOfSize(k, func(sub Itemset) bool {
			if len(sub) != k {
				t.Fatalf("subset %v has size %d, want %d", sub, len(sub), k)
			}
			if !s.ContainsAll(sub) {
				t.Fatalf("subset %v not contained in %v", sub, s)
			}
			n++
			return true
		})
		counts[k] = n
	}
	want := map[int]int{0: 0, 1: 4, 2: 6, 3: 4, 4: 1, 5: 0}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("subset counts = %v, want %v", counts, want)
	}
}

func TestSubsetsOfSizeDistinct(t *testing.T) {
	s := set(10, 20, 30, 40, 50)
	seen := map[string]bool{}
	s.SubsetsOfSize(3, func(sub Itemset) bool {
		k := sub.Key()
		if seen[k] {
			t.Fatalf("duplicate subset %v", sub)
		}
		seen[k] = true
		return true
	})
	if len(seen) != 10 {
		t.Errorf("C(5,3) = %d subsets, want 10", len(seen))
	}
}

// Property: union/intersect/minus agree with a map-based model.
func TestSetAlgebraQuick(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := fromBytes(xs)
		b := fromBytes(ys)
		ma, mb := toMap(a), toMap(b)

		u := a.Union(b)
		i := a.Intersect(b)
		d := a.Minus(b)

		wantU := map[Item]bool{}
		for k := range ma {
			wantU[k] = true
		}
		for k := range mb {
			wantU[k] = true
		}
		wantI := map[Item]bool{}
		wantD := map[Item]bool{}
		for k := range ma {
			if mb[k] {
				wantI[k] = true
			} else {
				wantD[k] = true
			}
		}
		return u.IsNormalized() && i.IsNormalized() && d.IsNormalized() &&
			sameSet(u, wantU) && sameSet(i, wantI) && sameSet(d, wantD)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: ProperSubsets emits exactly 2^n - 2 distinct proper subsets.
func TestProperSubsetsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item(i * 3)
		}
		s := NewItemset(items...)
		seen := map[string]bool{}
		s.ProperSubsets(func(sub Itemset) bool {
			if !s.ProperSupersetOf(sub) {
				t.Fatalf("%v emitted non-proper subset %v", s, sub)
			}
			seen[sub.Key()] = true
			return true
		})
		want := (1 << uint(n)) - 2
		if len(seen) != want {
			t.Fatalf("n=%d: %d subsets, want %d", n, len(seen), want)
		}
	}
}

// Property: ContainsAll(sub) matches map-model subset check.
func TestContainsAllQuick(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a := fromBytes(xs)
		b := fromBytes(ys)
		ma, mb := toMap(a), toMap(b)
		model := true
		for k := range mb {
			if !ma[k] {
				model = false
				break
			}
		}
		return a.ContainsAll(b) == model
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func fromBytes(xs []uint8) Itemset {
	items := make([]Item, len(xs))
	for i, x := range xs {
		items[i] = Item(x % 32) // force collisions so intersections are non-trivial
	}
	return NewItemset(items...)
}

func toMap(s Itemset) map[Item]bool {
	m := make(map[Item]bool, len(s))
	for _, it := range s {
		m[it] = true
	}
	return m
}

func sameSet(s Itemset, m map[Item]bool) bool {
	if len(s) != len(m) {
		return false
	}
	for _, it := range s {
		if !m[it] {
			return false
		}
	}
	return true
}
