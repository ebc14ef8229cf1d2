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
// db.TIDs(complete, ·), the transactions containing complete. It
// allocates nothing.
func ClassifyTIDs(db *txdb.DB, complete types.Itemset, tids []txdb.TID) SupportType {
	for _, tid := range tids {
		if db.Tx(tid).Items.Equal(complete) {
			return Explicit
		}
	}
	// Implicit: complete == (t1.D ∪ t1.A) ∩ (t2.D ∪ t2.A) for some pair.
	// Only transactions containing the set can participate, and for
	// two of them the intersection contains complete, so it equals
	// complete iff they share exactly len(complete) items.
	for i, ti := range tids {
		a := db.Tx(ti).Items
		for _, tj := range tids[i+1:] {
			if sharesOnly(a, db.Tx(tj).Items, len(complete)) {
				return Implicit
			}
		}
	}
	return Unsupported
}

// sharesOnly reports whether the normalized itemsets a and b have
// exactly k items in common, stopping as soon as they share more.
func sharesOnly(a, b types.Itemset, k int) bool {
	shared := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			shared++
			if shared > k {
				return false
			}
			i++
			j++
		}
	}
	return shared == k
}
