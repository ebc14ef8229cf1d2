package assoc

import (
	"cmp"
	"runtime"
	"strconv"
	"strings"

	"maras/internal/par"
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
// and the antecedent and consequent supports come from ev, whose memo
// holds every support counted here when FromItemsets returns. Results
// are sorted by descending support, then key, for determinism. The
// kept itemsets are evaluated, and the rules sorted, on a pool of
// GOMAXPROCS workers (package par); the rules do not depend on the
// worker count.
//
// Aligned with the rules, it also returns the index in sets of the
// itemset each rule was made from, so a caller can carry what it holds
// per itemset (an occurrence, say) over to the rules and then drop
// sets.
func FromItemsets(ev *Evaluator, sets []types.FrequentSet, opts GenOptions) ([]Rule, []int32) {
	return fromItemsets(ev, sets, opts, runtime.GOMAXPROCS(0))
}

// keptSet is an itemset that passes the domain filter: its index in
// the input, its drug count, and where its halves start in the shared
// backing.
type keptSet struct{ set, drugs, off int }

// fromItemsets is FromItemsets on at most workers goroutines.
// Each worker evaluates through its own fork of ev, and the forks'
// memos are merged into ev's at the end. The sort keys of each run of
// rules a worker evaluates are windows of one string.
func fromItemsets(ev *Evaluator, sets []types.FrequentSet, opts GenOptions, workers int) ([]Rule, []int32) {
	if opts.MinDrugs < 1 {
		opts.MinDrugs = 1
	}
	dict := ev.DB().Dict()
	// Filter by domain counts first, so only kept itemsets are split.
	var kept []keptSet
	total := 0
	for i := range sets {
		items := sets[i].Items
		drugs := 0
		for _, it := range items {
			if dict.IsDrug(it) {
				drugs++
			}
		}
		if drugs < opts.MinDrugs || drugs == len(items) || (opts.MaxDrugs > 0 && drugs > opts.MaxDrugs) {
			continue
		}
		kept = append(kept, keptSet{set: i, drugs: drugs, off: total})
		total += len(items)
	}

	// Every kept itemset's drugs and reactions are carved, capacity
	// capped, from one backing array.
	backing := make(types.Itemset, total)
	rules := make([]Rule, len(kept))
	keys := make([]string, len(kept))
	from := make([]int32, len(kept))
	evaluate := func(e *Evaluator, k int) {
		ks, fs := kept[k], &sets[kept[k].set]
		from[k] = int32(ks.set)
		drugs := backing[ks.off : ks.off : ks.off+ks.drugs]
		reacs := backing[ks.off+ks.drugs : ks.off+ks.drugs : ks.off+len(fs.Items)]
		for _, it := range fs.Items {
			if dict.IsDrug(it) {
				drugs = append(drugs, it)
			} else {
				reacs = append(reacs, it)
			}
		}
		rules[k] = e.evaluateComplete(drugs, reacs, fs.Items, fs.Support)
	}
	run := func(e *Evaluator, lo, hi int) {
		for k := lo; k < hi; k++ {
			evaluate(e, k)
		}
		ruleKeys(keys[lo:hi], rules[lo:hi])
	}
	if par.Workers(len(kept), workers) == 1 {
		run(ev, 0, len(kept))
	} else {
		forks := make([]*Evaluator, par.Workers(len(kept), workers))
		par.DoRuns(len(kept), workers, func(w, lo, hi int) {
			if forks[w] == nil {
				forks[w] = ev.Fork()
			}
			run(forks[w], lo, hi)
		})
		ev.absorb(forks)
	}

	n := 0
	for k := range rules {
		if rules[k].Confidence >= opts.MinConfidence {
			rules[n], keys[n], from[n] = rules[k], keys[k], from[k]
			n++
		}
	}
	rules, keys, from = rules[:n], keys[:n], from[:n]
	sortRules(rules, keys, workers, func(i, j int) { from[i], from[j] = from[j], from[i] })
	return rules, from
}

// ruleKeys sets keys[k] to rules[k].Key(), every key a window of one
// string.
func ruleKeys(keys []string, rules []Rule) {
	var b strings.Builder
	b.Grow(24 * len(rules))
	ends := make([]int, len(rules))
	var num [20]byte
	for k := range rules {
		for i, it := range rules[k].Antecedent {
			if i > 0 {
				b.WriteByte(',')
			}
			b.Write(strconv.AppendInt(num[:0], int64(it), 10))
		}
		b.WriteString("=>")
		for i, it := range rules[k].Consequent {
			if i > 0 {
				b.WriteByte(',')
			}
			b.Write(strconv.AppendInt(num[:0], int64(it), 10))
		}
		ends[k] = b.Len()
	}
	all, start := b.String(), 0
	for k, end := range ends {
		keys[k], start = all[start:end], end
	}
}

// AllPartitions materializes the *filtered* drug→ADR rule space at
// subset granularity: each itemset Z yields one rule per (non-empty
// drug subset, non-empty reaction subset) of Z — (2^d − 1)(2^a − 1)
// per itemset before deduplication, the "9 drug-ADR associations"
// blowup of the paper's Section 3.3 single-report example. It exists
// to demonstrate the partial-rule problem, not for production use.
//
// Deduplicated across itemsets; measures evaluated exactly.
func AllPartitions(db *txdb.DB, sets []types.FrequentSet, maxAnt int) []Rule {
	dict := db.Dict()
	seen := make(map[string]bool)
	var (
		rules []Rule
		keys  []string
	)
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
			keys = append(keys, key)
		}
		// Every non-empty subset pair; drug sets and reaction sets are
		// small per itemset, so the double power-set walk is bounded.
		subsetsIncludingFull(drugs, func(a types.Itemset) {
			subsetsIncludingFull(reacs, func(b types.Itemset) {
				emit(a, b)
			})
		})
	}
	sortRules(rules, keys, 1, nil)
	return rules
}

// sortRules orders rules in place by descending support, then key
// (keys[i] is rules[i].Key(), built once per rule rather than once per
// comparison), sorting an index on up to workers goroutines. Distinct
// rules have distinct keys, so the order is total. swap, when not nil,
// moves a slice aligned with rules along with them.
func sortRules(rules []Rule, keys []string, workers int, swap func(i, j int)) {
	order := make([]int32, len(rules))
	for i := range order {
		order[i] = int32(i)
	}
	order = par.SortFunc(order, func(a, b int32) int {
		if rules[a].Support != rules[b].Support {
			return cmp.Compare(rules[b].Support, rules[a].Support)
		}
		return strings.Compare(keys[a], keys[b])
	}, workers)
	par.Permute(order, func(i, j int) {
		rules[i], rules[j] = rules[j], rules[i]
		if swap != nil {
			swap(i, j)
		}
	})
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
func CountDrugADRRules(dict *types.Dictionary, sets []types.FrequentSet) int {
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
func CountAllPartitionRules(db *txdb.DB, sets []types.FrequentSet) int {
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
func CountTraditionalRules(sets []types.FrequentSet) int {
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
