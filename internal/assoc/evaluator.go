package assoc

import (
	"encoding/binary"

	"maras/internal/txdb"
	"maras/internal/types"
)

// Evaluator evaluates rules against one frozen transaction database,
// memoizing every exact support it counts by itemset. A pipeline run
// fills one Evaluator during rule generation, and cluster construction
// reads its memo, where the same antecedents, consequents and complete
// itemsets recur across thousands of contextual rules. Results are
// identical to Evaluate's.
//
// An Evaluator is not safe for concurrent use; it belongs to the run
// that created it. To count on several goroutines, give each its own
// Fork: forks of one Evaluator may run concurrently with each other as
// long as nothing writes the parent while they do.
type Evaluator struct {
	db   *txdb.DB
	base map[string]int // the parent's memo, read-only; nil unless forked
	memo map[string]int // supports of itemsets with ≥ 2 items, by itemKey

	key   []byte        // scratch itemKey
	union types.Itemset // scratch complete itemset
}

// NewEvaluator returns an Evaluator over db with an empty memo.
func NewEvaluator(db *txdb.DB) *Evaluator {
	return &Evaluator{db: db, memo: make(map[string]int)}
}

// Fork returns an Evaluator over the same database that reads e's memo
// as a frozen, read-only base and memoizes what it counts in a map of
// its own, so forks never write e or each other. A fork answers
// exactly what e would; it only loses the hits on supports that a
// sibling fork counted. The base is e's own memo, so fork the
// Evaluator that holds the memo, not a fork of it.
func (e *Evaluator) Fork() *Evaluator {
	return &Evaluator{db: e.db, base: e.memo, memo: make(map[string]int)}
}

// absorb merges the memos of forks of e into e's own, once none of
// them runs, so e then answers from memory everything they counted.
// Forks that were never made (nil) are skipped.
func (e *Evaluator) absorb(forks []*Evaluator) {
	for _, f := range forks {
		if f == nil {
			continue
		}
		if len(e.memo) == 0 {
			e.memo = f.memo
			continue
		}
		for k, s := range f.memo {
			e.memo[k] = s
		}
	}
}

// DB returns the database the Evaluator counts against.
func (e *Evaluator) DB() *txdb.DB { return e.db }

// Support returns db.Support(set). The empty set and singletons are
// answered from the database size and the posting length; longer sets
// are counted once and memoized.
func (e *Evaluator) Support(set types.Itemset) int {
	switch len(set) {
	case 0:
		return e.db.Len()
	case 1:
		return e.db.ItemSupport(set[0])
	}
	e.key = itemKey(e.key[:0], set)
	if s, ok := e.base[string(e.key)]; ok {
		return s
	}
	if s, ok := e.memo[string(e.key)]; ok {
		return s
	}
	s := e.db.Support(set)
	e.memo[string(e.key)] = s
	return s
}

// Evaluate is Evaluate(db, antecedent, consequent) with memoized
// supports.
func (e *Evaluator) Evaluate(antecedent, consequent types.Itemset) Rule {
	e.union = types.AppendUnion(e.union[:0], antecedent, consequent)
	return e.evaluate(antecedent, consequent, e.Support(e.union))
}

// evaluateComplete evaluates the rule drugs ⇒ reactions whose
// complete itemset is a mined set with a known support, taking that
// count instead of recounting it and remembering it for the
// contextual rules that will ask for it again.
func (e *Evaluator) evaluateComplete(drugs, reactions, complete types.Itemset, support int) Rule {
	if len(complete) >= 2 {
		e.key = itemKey(e.key[:0], complete)
		e.memo[string(e.key)] = support
	}
	return e.evaluate(drugs, reactions, support)
}

func (e *Evaluator) evaluate(antecedent, consequent types.Itemset, support int) Rule {
	r := Rule{Antecedent: antecedent, Consequent: consequent, Support: support}
	r.AntSupport = e.Support(antecedent)
	r.ConSupport = e.Support(consequent)
	r.setRatios(e.db.Len())
	return r
}

// itemKey appends a compact, collision-free encoding of set to buf.
func itemKey(buf []byte, set types.Itemset) []byte {
	for _, it := range set {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(it))
	}
	return buf
}
