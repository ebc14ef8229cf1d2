// Package mcac builds Multi-level Contextual Association Clusters
// (Section 3.5): each multi-drug target rule A ⇒ B grouped with all of
// its contextual rules X ⇒ B for every proper non-empty X ⊂ A, layered
// by antecedent cardinality |X|. The cluster is the unit that the
// exclusiveness measure (package rank) scores and the contextual glyph
// (package glyph) draws.
package mcac

import (
	"sort"

	"maras/internal/assoc"
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
	byCard := make(map[int][]assoc.Rule, n-1)
	target.Antecedent.ProperSubsets(func(sub types.Itemset) bool {
		r := ev.Evaluate(sub.Clone(), target.Consequent)
		byCard[len(sub)] = append(byCard[len(sub)], r)
		return true
	})
	for k := n - 1; k >= 1; k-- {
		rules := byCard[k]
		sort.Slice(rules, func(i, j int) bool {
			if rules[i].Confidence != rules[j].Confidence {
				return rules[i].Confidence > rules[j].Confidence
			}
			return rules[i].Key() < rules[j].Key()
		})
		c.Levels = append(c.Levels, Level{Cardinality: k, Rules: rules})
	}
	return c
}

// BuildAll constructs a cluster per target rule. Single-drug rules are
// skipped (they have no context and signal no interaction). Targets
// sharing antecedent subsets and consequents share ev's memoized
// supports.
func BuildAll(ev *assoc.Evaluator, targets []assoc.Rule) []Cluster {
	out := make([]Cluster, 0, len(targets))
	for _, r := range targets {
		if len(r.Antecedent) < 2 {
			continue
		}
		out = append(out, Build(ev, r))
	}
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
