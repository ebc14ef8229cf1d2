// Package mcac builds Multi-level Contextual Association Clusters
// (Section 3.5): each multi-drug target rule A ⇒ B grouped with all of
// its contextual rules X ⇒ B for every proper non-empty X ⊂ A, layered
// by antecedent cardinality |X|. The cluster is the unit that the
// exclusiveness measure (package rank) scores and the contextual glyph
// (package glyph) draws.
package mcac

import (
	"runtime"
	"slices"
	"sort"

	"maras/internal/assoc"
	"maras/internal/par"
	"maras/internal/types"
)

// Level groups the contextual rules whose antecedents share a
// cardinality.
type Level struct {
	// Cardinality is the number of drugs in each rule's antecedent.
	Cardinality int
	// Rules are the contextual rules at this level, sorted by
	// descending confidence (the glyph's within-band ordering).
	Rules []assoc.Rule
}

// Cluster is one target rule with its full context.
type Cluster struct {
	Target assoc.Rule
	// Levels holds the contextual levels ordered by descending
	// cardinality: Levels[0] has |A|−1 drugs per rule, the last level
	// has single-drug rules. (Table 3.1 lays them out this way.)
	Levels []Level
}

// DrugCount returns the number of drugs in the target antecedent.
func (c *Cluster) DrugCount() int { return len(c.Target.Antecedent) }

// ContextSize returns the total number of contextual rules, which for
// an n-drug target is always 2^n − 2.
func (c *Cluster) ContextSize() int {
	n := 0
	for _, l := range c.Levels {
		n += len(l.Rules)
	}
	return n
}

// LevelFor returns the level holding rules with k-drug antecedents,
// or nil if out of range.
func (c *Cluster) LevelFor(k int) *Level {
	for i := range c.Levels {
		if c.Levels[i].Cardinality == k {
			return &c.Levels[i]
		}
	}
	return nil
}

// ContextRules flattens all contextual rules, highest cardinality
// first, each level ordered by descending confidence — the exact
// clockwise layout order of the contextual glyph (Section 4).
func (c *Cluster) ContextRules() []assoc.Rule {
	out := make([]assoc.Rule, 0, c.ContextSize())
	for _, l := range c.Levels {
		out = append(out, l.Rules...)
	}
	return out
}

// Build constructs the cluster for the target rule. Every proper
// non-empty subset X of the antecedent contributes exactly one
// contextual rule X ⇒ B with measures evaluated exactly by ev
// (Definition 3.5.2: the context covers the whole power set minus the
// full antecedent and the empty set).
func Build(ev *assoc.Evaluator, target assoc.Rule) Cluster {
	n := len(target.Antecedent)
	c := Cluster{Target: target}
	if n < 2 {
		return c
	}
	if n > types.MaxSubsetItems {
		panic("mcac: Build on an antecedent larger than types.MaxSubsetItems")
	}
	// Every level is a window of one array of rules, highest
	// cardinality first, and every contextual antecedent a window of
	// one array of items: two allocations per cluster, not two per rule.
	rules := make([]assoc.Rule, 1<<n-2)
	items := make(types.Itemset, 0, n<<(n-1)-n)
	next := make([]int, n) // next free slot of the level of each cardinality
	c.Levels = make([]Level, 0, n-1)
	for k, at := n-1, 0; k >= 1; k-- {
		size := choose(n, k)
		c.Levels = append(c.Levels, Level{Cardinality: k, Rules: rules[at : at+size : at+size]})
		next[k] = at
		at += size
	}
	target.Antecedent.ProperSubsets(func(sub types.Itemset) bool {
		at := len(items)
		items = append(items, sub...)
		rules[next[len(sub)]] = ev.Evaluate(items[at:len(items):len(items)], target.Consequent)
		next[len(sub)]++
		return true
	})
	for _, l := range c.Levels {
		sortLevel(l.Rules)
	}
	return c
}

// choose returns the binomial coefficient C(n, k).
func choose(n, k int) int {
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// sortLevel orders one level's rules by descending confidence, then
// key. Only rules whose confidences tie need keys; each is built at
// most once, on first use, rather than twice per comparison. A level
// of up to 16 rules (every level of a target of at most five drugs) is
// insertion-sorted with its keys on the stack.
func sortLevel(rules []assoc.Rule) {
	if len(rules) > 16 {
		sort.Sort(byConfKey{rules, make([]string, len(rules))})
		return
	}
	var buf [16]string
	b := byConfKey{rules, buf[:len(rules)]}
	for i := 1; i < len(rules); i++ {
		for j := i; j > 0 && b.Less(j, j-1); j-- {
			b.Swap(j, j-1)
		}
	}
}

// byConfKey sorts rules together with their keys, built lazily ("" is
// not yet built; no rule's key is empty).
type byConfKey struct {
	rules []assoc.Rule
	keys  []string
}

func (b byConfKey) Len() int { return len(b.rules) }

func (b byConfKey) Less(i, j int) bool {
	if b.rules[i].Confidence != b.rules[j].Confidence {
		return b.rules[i].Confidence > b.rules[j].Confidence
	}
	return b.key(i) < b.key(j)
}

func (b byConfKey) key(i int) string {
	if b.keys[i] == "" {
		b.keys[i] = b.rules[i].Key()
	}
	return b.keys[i]
}

func (b byConfKey) Swap(i, j int) {
	b.rules[i], b.rules[j] = b.rules[j], b.rules[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// BuildAll constructs a cluster per target rule, in target order.
// Single-drug rules are skipped (they have no context and signal no
// interaction). Every cluster depends on its target alone (Definition
// 3.5.2), so they are built on a pool of GOMAXPROCS workers (package
// par). With one worker every cluster counts through ev; otherwise
// each worker counts through its own fork of ev, which reads ev's memo
// but never writes it.
func BuildAll(ev *assoc.Evaluator, targets []assoc.Rule) []Cluster {
	return buildAll(ev, targets, runtime.GOMAXPROCS(0))
}

// buildAll is BuildAll on at most workers goroutines.
func buildAll(ev *assoc.Evaluator, targets []assoc.Rule, workers int) []Cluster {
	multi := make([]int, 0, len(targets)) // indices of multi-drug targets
	for i := range targets {
		if len(targets[i].Antecedent) >= 2 {
			multi = append(multi, i)
		}
	}
	out := make([]Cluster, len(multi))
	if par.Workers(len(multi), workers) == 1 {
		for k, i := range multi {
			out[k] = Build(ev, targets[i])
		}
		return out
	}
	// A fork recounts every support its own memo lacks, even one a
	// sibling has counted. Targets sharing a consequent and leading
	// antecedent items share the most contextual supports, so workers
	// take contiguous runs of targets in that order.
	order := make([]int, len(multi)) // positions in out
	for k := range order {
		order[k] = k
	}
	slices.SortFunc(order, func(a, b int) int {
		ra, rb := &targets[multi[a]], &targets[multi[b]]
		if c := slices.Compare(ra.Consequent, rb.Consequent); c != 0 {
			return c
		}
		return slices.Compare(ra.Antecedent, rb.Antecedent)
	})
	evs := make([]*assoc.Evaluator, par.Workers(len(order), workers))
	par.DoRuns(len(order), workers, func(w, lo, hi int) {
		if evs[w] == nil {
			evs[w] = ev.Fork()
		}
		for _, k := range order[lo:hi] {
			out[k] = Build(evs[w], targets[multi[k]])
		}
	})
	return out
}

// ConfidencesByLevel returns, per level (highest cardinality first),
// the contextual confidence values — the v_k vectors of Formula 3.5.
func (c *Cluster) ConfidencesByLevel() [][]float64 {
	return c.valuesByLevel(assoc.MeasureConfidence)
}

// ValuesByLevel returns the contextual values of measure m per level,
// highest cardinality first.
func (c *Cluster) ValuesByLevel(m assoc.Measure) [][]float64 {
	return c.valuesByLevel(m)
}

func (c *Cluster) valuesByLevel(m assoc.Measure) [][]float64 {
	out := make([][]float64, len(c.Levels))
	for i, l := range c.Levels {
		vals := make([]float64, len(l.Rules))
		for j := range l.Rules {
			vals[j] = m.Value(&l.Rules[j])
		}
		out[i] = vals
	}
	return out
}
