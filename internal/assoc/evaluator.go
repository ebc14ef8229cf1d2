package assoc

import (
	"encoding/binary"

	"maras/internal/txdb"
	"maras/internal/types"
)

// Evaluator evaluates rules against one frozen transaction database,
// memoizing every exact support it counts by itemset. A pipeline run
// shares one Evaluator between rule generation and cluster
// construction, where the same antecedents, consequents and complete
// itemsets recur across thousands of contextual rules. Results are
// identical to Evaluate's.
//
// An Evaluator is not safe for concurrent use; it belongs to the run
// that created it.
type Evaluator struct {
	db   *txdb.DB
	memo map[string]int // supports of itemsets with ≥ 2 items, by itemKey

	key  []byte     // scratch itemKey
	tids []txdb.TID // scratch posting-list intersection
}

// NewEvaluator returns an Evaluator over db with an empty memo.
func NewEvaluator(db *txdb.DB) *Evaluator {
	return &Evaluator{db: db, memo: make(map[string]int)}
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
	if s, ok := e.memo[string(e.key)]; ok {
		return s
	}
	e.tids = e.db.TIDs(set, e.tids)
	s := len(e.tids)
	e.memo[string(e.key)] = s
	return s
}

// Evaluate is Evaluate(db, antecedent, consequent) with memoized
// supports.
func (e *Evaluator) Evaluate(antecedent, consequent types.Itemset) Rule {
	return e.evaluate(antecedent, consequent, e.Support(antecedent.Union(consequent)))
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
