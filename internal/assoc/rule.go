// Package assoc models drug→ADR association rules and their
// interestingness measures (support, confidence, lift — Formulas
// 2.1–2.3), generates the rule base from mined itemsets under the
// paper's structural constraints (drug-only antecedent, reaction-only
// consequent, Section 3.1), and classifies rule support as explicit,
// implicit, or unsupported/partial (Definitions 3.3.1–3.3.2).
package assoc

import (
	"fmt"
	"strings"

	"maras/internal/txdb"
	"maras/internal/types"
)

// Rule is an association rule A ⇒ B with its measures evaluated
// against a specific transaction database. Antecedent holds only drug
// items and Consequent only reaction items.
type Rule struct {
	Antecedent types.Itemset // drugs A
	Consequent types.Itemset // reactions B

	Support    int     // |A ∪ B| — absolute co-occurrence count (Formula 2.1)
	AntSupport int     // |A|
	ConSupport int     // |B|
	Confidence float64 // |A ∪ B| / |A| (Formula 2.2)
	Lift       float64 // |A ∪ B|·N / (|A|·|B|) (Formula 2.3)
}

// Complete returns the rule's complete itemset A ∪ B.
func (r *Rule) Complete() types.Itemset { return r.Antecedent.Union(r.Consequent) }

// Key returns a canonical identity for the rule (antecedent ⇒
// consequent), stable across runs.
func (r *Rule) Key() string { return r.Antecedent.Key() + "=>" + r.Consequent.Key() }

// Render formats the rule with names from dict, e.g.
// "[ASPIRIN WARFARIN] => [Haemorrhage] (sup=12 conf=0.86 lift=34.1)".
func (r *Rule) Render(dict *types.Dictionary) string {
	return fmt.Sprintf("[%s] => [%s] (sup=%d conf=%.3f lift=%.2f)",
		strings.Join(dict.SortedNames(r.Antecedent), " + "),
		strings.Join(dict.SortedNames(r.Consequent), ", "),
		r.Support, r.Confidence, r.Lift)
}

// Measure identifies which base measure a ranking method reads.
type Measure uint8

const (
	// MeasureConfidence ranks/scores by rule confidence.
	MeasureConfidence Measure = iota
	// MeasureLift ranks/scores by rule lift.
	MeasureLift
)

// String names the measure for reports.
func (m Measure) String() string {
	switch m {
	case MeasureConfidence:
		return "confidence"
	case MeasureLift:
		return "lift"
	default:
		return fmt.Sprintf("measure(%d)", uint8(m))
	}
}

// Value extracts the measure's value from r.
func (m Measure) Value(r *Rule) float64 {
	if m == MeasureLift {
		return r.Lift
	}
	return r.Confidence
}

// Evaluate computes every measure of the rule A ⇒ B against db. It is
// exact: supports come from posting-list intersections.
func Evaluate(db *txdb.DB, antecedent, consequent types.Itemset) Rule {
	r := Rule{Antecedent: antecedent, Consequent: consequent}
	r.Support = db.Support(antecedent.Union(consequent))
	r.AntSupport = db.Support(antecedent)
	r.ConSupport = db.Support(consequent)
	r.setRatios(db.Len())
	return r
}

// setRatios derives confidence and lift from the rule's supports over
// a database of n transactions.
func (r *Rule) setRatios(n int) {
	if r.AntSupport > 0 {
		r.Confidence = float64(r.Support) / float64(r.AntSupport)
	}
	if r.AntSupport > 0 && r.ConSupport > 0 && n > 0 {
		r.Lift = float64(r.Support) * float64(n) /
			(float64(r.AntSupport) * float64(r.ConSupport))
	}
}

// SupportType classifies how a drug-ADR association is supported by
// the reports (Section 3.3).
//
// Definition 3.3.2 asks for the exact intersection of "at least two"
// reports, not of a pair: three reports can meet in a set that no two
// of them meet in ({a,b,c,x,y}, {a,b,c,x,z} and {a,b,c,y,z} meet in
// {a,b,c}; each pair shares four items). If some reports meet exactly
// in S, so do all the reports containing S, since their intersection
// lies between S and that of the few. So S is implicitly supported
// exactly when it is the intersection of every report containing it,
// intent(extent(S)) in formal-concept terms, and at least two reports
// contain it. A closed itemset is that intersection by definition,
// which is Lemma 3.4.2: a closed complete itemset is explicitly or
// implicitly supported.
type SupportType uint8

const (
	// Unsupported marks partial associations backed by no report
	// pattern — type 3 in the paper, misleading and discarded.
	Unsupported SupportType = iota
	// Explicit marks associations whose complete itemset equals some
	// report's full drug+reaction set (Definition 3.3.1).
	Explicit
	// Implicit marks associations whose complete itemset is the exact
	// intersection of at least two reports (Definition 3.3.2).
	Implicit
)

// String names the support type.
func (s SupportType) String() string {
	switch s {
	case Explicit:
		return "explicit"
	case Implicit:
		return "implicit"
	default:
		return "unsupported"
	}
}

// Classify determines the support type of the association with the
// given complete itemset against db, directly per Definitions 3.3.1
// and 3.3.2. Explicit wins when both hold.
func Classify(db *txdb.DB, complete types.Itemset) SupportType {
	return ClassifyTIDs(db, complete, db.TIDs(complete, nil))
}

// ClassifyTIDs is Classify for a caller that already holds tids =
// db.TIDs(complete, ·), the transactions containing complete. It is
// the general classifier, for any set: a pass over the transactions'
// lengths, then one over their items, repeated only for each further
// 64 items of the shortest, with an early exit; it allocates nothing.
// A caller that mined complete as a closed set knows more and needs
// only ClassifyClosed.
func ClassifyTIDs(db *txdb.DB, complete types.Itemset, tids []txdb.TID) SupportType {
	// Explicit: a containing transaction holds nothing else. The
	// shortest one seeds the intersection.
	seed := -1
	for i, tid := range tids {
		n := len(db.Tx(tid).Items)
		if n == len(complete) {
			return Explicit
		}
		if seed < 0 || n < len(db.Tx(tids[seed]).Items) {
			seed = i
		}
	}
	if len(tids) < 2 {
		return Unsupported
	}
	// Implicit: no item of the seed outside complete lies in every
	// containing transaction. The seed is checked in windows of 64
	// items, one bit each, and a window is done once every bit of an
	// item outside complete is cleared.
	items := db.Tx(tids[seed]).Items
	for lo := 0; lo < len(items); lo += 64 {
		window := items[lo:min(lo+64, len(items))]
		live := ^present(window, complete) & (^uint64(0) >> (64 - len(window)))
		for i := 0; i < len(tids) && live != 0; i++ {
			if i != seed {
				live &= present(window, db.Tx(tids[i]).Items)
			}
		}
		if live != 0 {
			return Unsupported
		}
	}
	return Implicit
}

// present returns a bitmask of the items of window (sorted, at most
// 64) that the sorted set s holds: bit k for window[k].
func present(window, s types.Itemset) uint64 {
	var bits uint64
	j := 0
	for k, it := range window {
		for j < len(s) && s[j] < it {
			j++
		}
		if j == len(s) {
			break
		}
		if s[j] == it {
			bits |= 1 << k
		}
	}
	return bits
}

// ClassifyClosed types a set of k items from what a closed miner
// delivers with it: its occurrence, the ascending TIDs of the
// transactions containing it, and whether it is closed, that is equal
// to the intersection of those transactions. It is Explicit when some
// transaction of the occurrence holds exactly k items, Implicit when
// it is not but is closed and occurs at least twice, and Unsupported
// otherwise; for the sets and occurrences a closed miner emits, that
// is ClassifyTIDs' answer, with a length check per TID. It allocates
// nothing.
func ClassifyClosed(db *txdb.DB, k int, occ []txdb.TID, closed bool) SupportType {
	for _, tid := range occ {
		if len(db.Tx(tid).Items) == k {
			return Explicit
		}
	}
	if closed && len(occ) >= 2 {
		return Implicit
	}
	return Unsupported
}
