// Package rank scores and orders MCAC clusters by how exclusively the
// observed ADRs belong to the *full* drug combination rather than to
// any of its sub-combinations — the paper's interestingness notion for
// drug-drug-interaction signals (Section 3.6).
//
// Three scoring formulas from the paper are implemented:
//
//	Formula 3.3  — plain context-average:      p − mean(v)
//	Formula 3.4  — CV-penalized:               (p − mean(v))·(1 − θ·Cv(v))
//	Formula 3.5  — level-wise, decayed (full): (1/|V|) Σ_k (p − v̄_k)·f_d(k)·(1 − θ·Cv(v_k))
//
// plus two baselines: Bayardo's improvement (Formula 3.2) and ranking
// directly by a rule's raw confidence or lift.
package rank

import (
	"fmt"
	"math"
	"sort"

	"maras/internal/assoc"
	"maras/internal/mcac"
)

// Decay weights contextual levels by cardinality k for an n-drug
// target (Formula 3.5's f_d). Weights must be positive for k in
// [1, n−1].
type Decay func(k, n int) float64

// LinearDecay is the paper's choice: weight 1 − (k−1)/n, so
// single-drug context matters most and weight shrinks as the
// contextual antecedent approaches the full combination.
func LinearDecay(k, n int) float64 { return 1 - float64(k-1)/float64(n) }

// NoDecay weighs every level equally (ablation A2).
func NoDecay(k, n int) float64 { return 1 }

// ExpDecay halves the weight per extra contextual drug (ablation A2).
func ExpDecay(k, n int) float64 { return math.Pow(0.5, float64(k-1)) }

// Options configures the exclusiveness scorer.
type Options struct {
	// Measure selects confidence (paper default) or lift as the
	// strength measure p and v — "the confidence in this computation
	// could be replaced by other reasonable measures" (Section 3.6).
	// Lift values are used raw: the score then ranks by the lift
	// *contrast* between the combination and its sub-combinations,
	// which favours rules with rarer consequents exactly as the
	// paper observes of its lift variant.
	Measure assoc.Measure
	// Theta is θ ∈ [0,1], the coefficient-of-variation penalty
	// weight of Formula 3.4/3.5. Values are clamped to [0,1].
	Theta float64
	// Decay is f_d; nil means LinearDecay.
	Decay Decay
}

func (o Options) normalized() Options {
	if o.Theta < 0 {
		o.Theta = 0
	} else if o.Theta > 1 {
		o.Theta = 1
	}
	if o.Decay == nil {
		o.Decay = LinearDecay
	}
	return o
}

// value maps a rule to the scorer's strength measure: confidence in
// [0,1], or raw lift.
func (o Options) value(r *assoc.Rule) float64 {
	return o.Measure.Value(r)
}

// Exclusiveness computes Formula 3.5 for the cluster: the mean over
// contextual levels k of (p − v̄_k), weighted by the decay and
// penalized by each level's coefficient of variation. Clusters with
// no context (single-drug targets) score 0.
func Exclusiveness(c *mcac.Cluster, opts Options) float64 {
	opts = opts.normalized()
	if len(c.Levels) == 0 {
		return 0
	}
	p := opts.value(&c.Target)
	n := c.DrugCount()
	sum := 0.0
	levels := 0
	// Levels of up to 16 rules (every level of a target of at most five
	// drugs) take their values from the stack.
	var buf [16]float64
	for _, l := range c.Levels {
		if len(l.Rules) == 0 {
			continue
		}
		vals := buf[:0]
		if len(l.Rules) > len(buf) {
			vals = make([]float64, 0, len(l.Rules))
		}
		for i := range l.Rules {
			vals = append(vals, opts.value(&l.Rules[i]))
		}
		mean, cv := meanCV(vals)
		sum += (p - mean) * opts.Decay(l.Cardinality, n) * (1 - opts.Theta*cv)
		levels++
	}
	if levels == 0 {
		return 0
	}
	return sum / float64(levels)
}

// ExclusivenessFlat computes Formula 3.3 (θ=0) or Formula 3.4 (θ>0):
// the context is treated as one flat vector of values, ignoring level
// structure and decay. Kept for the formula-variant ablation.
func ExclusivenessFlat(c *mcac.Cluster, opts Options) float64 {
	opts = opts.normalized()
	if c.ContextSize() == 0 {
		return 0
	}
	p := opts.value(&c.Target)
	var vals []float64
	for _, l := range c.Levels {
		for i := range l.Rules {
			vals = append(vals, opts.value(&l.Rules[i]))
		}
	}
	mean, cv := meanCV(vals)
	return (p - mean) * (1 - opts.Theta*cv)
}

// Improvement computes Bayardo's improvement (Formula 3.2): the
// minimum over all proper sub-rules of conf(A⇒B) − conf(As⇒B).
// Negative improvement means some sub-rule predicts the ADRs at least
// as well, i.e. the combination signal is dominated.
func Improvement(c *mcac.Cluster) float64 {
	if c.ContextSize() == 0 {
		return 0
	}
	min := math.Inf(1)
	for _, l := range c.Levels {
		for i := range l.Rules {
			if d := c.Target.Confidence - l.Rules[i].Confidence; d < min {
				min = d
			}
		}
	}
	return min
}

// meanCV returns the mean and the coefficient of variation
// (population σ / mean) of vals. A zero mean yields Cv 0: with all
// contextual strengths at zero there is no spread to penalize.
func meanCV(vals []float64) (mean, cv float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	if mean == 0 {
		return 0, 0
	}
	var ss float64
	for _, v := range vals {
		d := v - mean
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(len(vals)))
	cv = sigma / mean
	if cv < 0 {
		cv = -cv
	}
	return mean, cv
}

// Method labels a cluster-ranking strategy for the Table 5.2 style
// comparison.
type Method uint8

const (
	// ByConfidence ranks by the target rule's raw confidence.
	ByConfidence Method = iota
	// ByLift ranks by the target rule's raw lift.
	ByLift
	// ByExclusivenessConf ranks by Formula 3.5 over confidence.
	ByExclusivenessConf
	// ByExclusivenessLift ranks by Formula 3.5 over lift.
	ByExclusivenessLift
	// ByImprovement ranks by Bayardo improvement (baseline A4).
	ByImprovement
)

// String names the method as the paper's Table 5.2 column headers do.
func (m Method) String() string {
	switch m {
	case ByConfidence:
		return "Confidence"
	case ByLift:
		return "Lift"
	case ByExclusivenessConf:
		return "Exclusiveness with Confidence"
	case ByExclusivenessLift:
		return "Exclusiveness with Lift"
	case ByImprovement:
		return "Improvement"
	default:
		return fmt.Sprintf("method(%d)", uint8(m))
	}
}

// Ranked pairs a cluster with its score under some method.
type Ranked struct {
	Cluster *mcac.Cluster
	Score   float64
	// Index is the cluster's position in the slice Rank was given, so
	// a caller can find what it holds aligned with the clusters.
	Index int
}

// Rank scores every cluster under method m (θ and decay from opts
// apply to the exclusiveness methods) and returns them sorted by
// descending score with deterministic tie-breaks (higher support,
// then rule key).
func Rank(clusters []mcac.Cluster, m Method, opts Options) []Ranked {
	out := make([]Ranked, len(clusters))
	for i := range clusters {
		c := &clusters[i]
		var s float64
		switch m {
		case ByConfidence:
			s = c.Target.Confidence
		case ByLift:
			s = c.Target.Lift
		case ByExclusivenessConf:
			o := opts
			o.Measure = assoc.MeasureConfidence
			s = Exclusiveness(c, o)
		case ByExclusivenessLift:
			o := opts
			o.Measure = assoc.MeasureLift
			s = Exclusiveness(c, o)
		case ByImprovement:
			s = Improvement(c)
		}
		out[i] = Ranked{Cluster: c, Score: s, Index: i}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Cluster.Target.Support != out[j].Cluster.Target.Support {
			return out[i].Cluster.Target.Support > out[j].Cluster.Target.Support
		}
		return out[i].Cluster.Target.Key() < out[j].Cluster.Target.Key()
	})
	return out
}
