package types

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Itemset is a set of items represented as a strictly increasing
// slice. Every constructor in this package guarantees the invariant;
// code that builds itemsets by hand must call Normalize (or keep the
// ordering itself) before passing them on.
type Itemset []Item

// FrequentSet is a mined itemset with its absolute support, the unit
// every miner (LCM, FP-Growth, Apriori) emits and rule generation
// consumes.
type FrequentSet struct {
	Items   Itemset
	Support int
}

// NewItemset copies items into a normalized (sorted, deduplicated)
// itemset.
func NewItemset(items ...Item) Itemset {
	s := make(Itemset, len(items))
	copy(s, items)
	return s.Normalize()
}

// Normalize sorts s in place and removes duplicates, returning the
// (possibly shortened) normalized set.
func (s Itemset) Normalize() Itemset {
	if len(s) < 2 {
		return s
	}
	slices.Sort(s)
	out := s[:1]
	for _, it := range s[1:] {
		if it != out[len(out)-1] {
			out = append(out, it)
		}
	}
	return out
}

// IsNormalized reports whether s is strictly increasing.
func (s Itemset) IsNormalized() bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s Itemset) Clone() Itemset {
	out := make(Itemset, len(s))
	copy(out, s)
	return out
}

// Contains reports whether s contains it. O(log n).
func (s Itemset) Contains(it Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= it })
	return i < len(s) && s[i] == it
}

// ContainsAll reports whether sub ⊆ s. Both must be normalized. O(n).
func (s Itemset) ContainsAll(sub Itemset) bool {
	if len(sub) > len(s) {
		return false
	}
	i := 0
	for _, want := range sub {
		for i < len(s) && s[i] < want {
			i++
		}
		if i >= len(s) || s[i] != want {
			return false
		}
		i++
	}
	return true
}

// ProperSupersetOf reports whether s ⊃ other.
func (s Itemset) ProperSupersetOf(other Itemset) bool {
	return len(s) > len(other) && s.ContainsAll(other)
}

// Equal reports whether s and other hold exactly the same items.
func (s Itemset) Equal(other Itemset) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ other as a new normalized itemset.
func (s Itemset) Union(other Itemset) Itemset {
	return AppendUnion(make(Itemset, 0, len(s)+len(other)), s, other)
}

// AppendUnion appends s ∪ other, normalized, to out and returns the
// extended slice, so hot callers can reuse a buffer.
func AppendUnion(out, s, other Itemset) Itemset {
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] < other[j]:
			out = append(out, s[i])
			i++
		case s[i] > other[j]:
			out = append(out, other[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, other[j:]...)
	return out
}

// Intersect returns s ∩ other as a new normalized itemset.
func (s Itemset) Intersect(other Itemset) Itemset {
	var out Itemset
	i, j := 0, 0
	for i < len(s) && j < len(other) {
		switch {
		case s[i] < other[j]:
			i++
		case s[i] > other[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Minus returns s \ other as a new normalized itemset.
func (s Itemset) Minus(other Itemset) Itemset {
	var out Itemset
	j := 0
	for _, it := range s {
		for j < len(other) && other[j] < it {
			j++
		}
		if j < len(other) && other[j] == it {
			continue
		}
		out = append(out, it)
	}
	return out
}

// Without returns s with it removed (a copy; s is untouched).
func (s Itemset) Without(it Item) Itemset {
	out := make(Itemset, 0, len(s))
	for _, x := range s {
		if x != it {
			out = append(out, x)
		}
	}
	return out
}

// Key returns a canonical string key for s, suitable for map keys.
// Two itemsets have equal keys iff they are Equal.
func (s Itemset) Key() string {
	if len(s) == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(len(s) * 6)
	for i, it := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(it)))
	}
	return b.String()
}

// Hash returns a 64-bit FNV-1a hash of the itemset contents.
func (s Itemset) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, it := range s {
		v := uint32(it)
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(v >> shift))
			h *= prime64
		}
	}
	return h
}

// String renders the raw item IDs, mainly for tests and debugging;
// production output goes through Dictionary.Names.
func (s Itemset) String() string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = strconv.Itoa(int(it))
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// MaxSubsetItems is the largest itemset ProperSubsets walks.
const MaxSubsetItems = 20

// ProperSubsets calls fn with every proper non-empty subset of s,
// reusing a single scratch buffer (fn must copy if it retains the
// slice). Subsets are emitted in ascending bitmask order of s's
// positions. It is intended for the small antecedents (≤ ~12 items)
// that occur in contextual-rule enumeration; larger sets are refused
// to avoid 2^n blowups hiding in callers.
func (s Itemset) ProperSubsets(fn func(Itemset) bool) {
	n := len(s)
	if n == 0 {
		return
	}
	if n > MaxSubsetItems {
		panic("types: ProperSubsets on itemset larger than 20 items")
	}
	scratch := make(Itemset, 0, n)
	full := uint32(1)<<uint(n) - 1
	for mask := uint32(1); mask < full; mask++ {
		scratch = scratch[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				scratch = append(scratch, s[i])
			}
		}
		if !fn(scratch) {
			return
		}
	}
}

// SubsetsOfSize calls fn with every subset of s having exactly k
// items, reusing a scratch buffer as in ProperSubsets.
func (s Itemset) SubsetsOfSize(k int, fn func(Itemset) bool) {
	n := len(s)
	if k <= 0 || k > n {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	scratch := make(Itemset, k)
	for {
		for i, j := range idx {
			scratch[i] = s[j]
		}
		if !fn(scratch) {
			return
		}
		// Advance the combination indices.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
