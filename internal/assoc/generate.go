package assoc

import (
	"sort"

	"maras/internal/fpgrowth"
	"maras/internal/txdb"
	"maras/internal/types"
)

// GenOptions controls rule generation from mined itemsets.
type GenOptions struct {
	// MinDrugs is the minimum antecedent size; the multi-drug study
	// requires ≥ 2 (Section 3.4: "the drug-ADR association will be
	// evaluated as long as it has more than one drug"). 0 means 1.
	MinDrugs int
	// MaxDrugs caps antecedent size; 0 = unbounded.
	MaxDrugs int
	// MinConfidence drops rules below the threshold; 0 keeps all.
	MinConfidence float64
}

// FromItemsets turns mined itemsets into drug→ADR rules: for each
// itemset containing at least MinDrugs drugs and at least one
// reaction, it emits the single rule drugs(Z) ⇒ reactions(Z). This is
// the paper's closed-complete-itemset rule form — when Z is closed,
// Lemma 3.4.2 guarantees the rule is a supported (non-spurious)
// association. Itemsets without both domains are skipped.
//
// Measures are exact: a rule's support is its itemset's mined count,
// and the antecedent and consequent supports come from ev. Results are
// sorted by descending support, then key, for determinism.
func FromItemsets(ev *Evaluator, sets []fpgrowth.FrequentSet, opts GenOptions) []Rule {
	if opts.MinDrugs < 1 {
		opts.MinDrugs = 1
	}
	dict := ev.DB().Dict()
	rules := make([]Rule, 0, len(sets))
	for _, fs := range sets {
		drugs, reacs := dict.SplitDomains(fs.Items)
		if len(drugs) < opts.MinDrugs || len(reacs) == 0 {
			continue
		}
		if opts.MaxDrugs > 0 && len(drugs) > opts.MaxDrugs {
			continue
		}
		r := ev.evaluateComplete(drugs, reacs, fs.Items, fs.Support)
		if r.Confidence < opts.MinConfidence {
			continue
		}
		rules = append(rules, r)
	}
	sortRules(rules)
	return rules
}

// AllPartitions materializes the *filtered* drug→ADR rule space at
// subset granularity: each itemset Z yields one rule per (non-empty
// drug subset, non-empty reaction subset) of Z — (2^d − 1)(2^a − 1)
// per itemset before deduplication, the "9 drug-ADR associations"
// blowup of the paper's Section 3.3 single-report example. It exists
// to demonstrate the partial-rule problem, not for production use.
//
// Deduplicated across itemsets; measures evaluated exactly.
func AllPartitions(db *txdb.DB, sets []fpgrowth.FrequentSet, maxAnt int) []Rule {
	dict := db.Dict()
	seen := make(map[string]bool)
	var rules []Rule
	for _, fs := range sets {
		drugs, reacs := dict.SplitDomains(fs.Items)
		if len(drugs) == 0 || len(reacs) == 0 {
			continue
		}
		emit := func(a, b types.Itemset) {
			if maxAnt > 0 && len(a) > maxAnt {
				return
			}
			key := a.Key() + "=>" + b.Key()
			if seen[key] {
				return
			}
			seen[key] = true
			rules = append(rules, Evaluate(db, a.Clone(), b.Clone()))
		}
		// Every non-empty subset pair; drug sets and reaction sets are
		// small per itemset, so the double power-set walk is bounded.
		subsetsIncludingFull(drugs, func(a types.Itemset) {
			subsetsIncludingFull(reacs, func(b types.Itemset) {
				emit(a, b)
			})
		})
	}
	sortRules(rules)
	return rules
}

// sortRules orders rules by descending support, then key. Keys are
// built once per rule rather than once per comparison.
func sortRules(rules []Rule) {
	keys := make([]string, len(rules))
	for i := range rules {
		keys[i] = rules[i].Key()
	}
	sort.Sort(bySupportKey{rules, keys})
}

// bySupportKey sorts rules and their precomputed keys together.
type bySupportKey struct {
	rules []Rule
	keys  []string
}

func (b bySupportKey) Len() int { return len(b.rules) }

func (b bySupportKey) Less(i, j int) bool {
	if b.rules[i].Support != b.rules[j].Support {
		return b.rules[i].Support > b.rules[j].Support
	}
	return b.keys[i] < b.keys[j]
}

func (b bySupportKey) Swap(i, j int) {
	b.rules[i], b.rules[j] = b.rules[j], b.rules[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// subsetsIncludingFull visits every non-empty subset of s, including
// s itself.
func subsetsIncludingFull(s types.Itemset, fn func(types.Itemset)) {
	s.ProperSubsets(func(sub types.Itemset) bool {
		fn(sub)
		return true
	})
	fn(s)
}

// CountDrugADRRules returns how many drug→ADR rules FromItemsets
// would emit with MinDrugs=1 and no confidence filter, without
// evaluating measures. Each itemset with at least one drug and one
// reaction yields exactly one rule, and distinct itemsets yield
// distinct (antecedent, consequent) pairs, so this is a pure count.
func CountDrugADRRules(dict *types.Dictionary, sets []fpgrowth.FrequentSet) int {
	n := 0
	for _, fs := range sets {
		hasDrug, hasReac := false, false
		for _, it := range fs.Items {
			if dict.IsDrug(it) {
				hasDrug = true
			} else {
				hasReac = true
			}
		}
		if hasDrug && hasReac {
			n++
		}
	}
	return n
}

// CountAllPartitionRules returns how many distinct drug→ADR rules
// AllPartitions would generate, without materializing or evaluating
// them.
func CountAllPartitionRules(db *txdb.DB, sets []fpgrowth.FrequentSet) int {
	dict := db.Dict()
	seen := make(map[string]bool)
	for _, fs := range sets {
		drugs, reacs := dict.SplitDomains(fs.Items)
		if len(drugs) == 0 || len(reacs) == 0 {
			continue
		}
		subsetsIncludingFull(drugs, func(a types.Itemset) {
			ak := a.Key()
			subsetsIncludingFull(reacs, func(b types.Itemset) {
				seen[ak+"=>"+b.Key()] = true
			})
		})
	}
	return len(seen)
}

// CountTraditionalRules returns the size of the unconstrained rule
// space of classical association rule mining over the frequent
// itemsets: every frequent itemset U yields a rule A ⇒ U\A for each
// non-empty proper subset A ⊂ U, i.e. 2^|U| − 2 rules, with no
// drug/reaction domain restriction. This is Fig 5.1's "Total rules"
// series — the pool an analyst would face without MARAS's filtering.
// Rules from different itemsets are distinct by construction (the
// complete itemset A ∪ B identifies its generator), so no
// deduplication is needed.
func CountTraditionalRules(sets []fpgrowth.FrequentSet) int {
	total := 0
	for _, fs := range sets {
		k := uint(len(fs.Items))
		if k < 2 {
			continue
		}
		total += (1 << k) - 2
	}
	return total
}
