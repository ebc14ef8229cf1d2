// Package trend tracks drug-drug-interaction signals across quarters
// — the post-marketing surveillance view the paper motivates ("these
// drug-drug interactions should be detected early-on with minimum
// patient exposure"): for each combination, its support, confidence,
// exclusiveness score and rank per quarter, plus emergence detection
// (the first quarter a signal clears the reporting threshold) and
// trajectory classification.
package trend

import (
	"fmt"
	"sort"
	"strings"

	"maras/internal/core"
	"maras/internal/faers"
)

// Point is one quarter's measurement of a combination.
type Point struct {
	Quarter    string
	Rank       int // 0 = not signaled this quarter
	Score      float64
	Support    int
	Confidence float64
}

// Signaled reports whether the combination actually signaled this
// quarter: it must hold a rank AND have non-zero support. Mined
// signals always satisfy both (support >= the mining threshold), but
// hand-built or corrupted series can carry a rank with zero support;
// classification treats those as not signaled so an all-zero-support
// series deterministically classifies Absent.
func (p Point) Signaled() bool {
	return p.Rank > 0 && p.Support > 0
}

// Trajectory is a combination's history across quarters.
type Trajectory struct {
	Key       string   // canonical drug-combination key
	Drugs     []string // sorted names
	Reactions []string // reactions of the strongest quarter's signal
	Points    []Point  // one per analyzed quarter, in input order
}

// Quarters returns how many quarters the combination was signaled in.
func (t *Trajectory) Quarters() int {
	n := 0
	for _, p := range t.Points {
		if p.Signaled() {
			n++
		}
	}
	return n
}

// EmergedAt returns the first quarter label where the combination was
// signaled, or "" if never.
func (t *Trajectory) EmergedAt() string {
	for _, p := range t.Points {
		if p.Signaled() {
			return p.Quarter
		}
	}
	return ""
}

// PeakSupport returns the maximum per-quarter support.
func (t *Trajectory) PeakSupport() int {
	max := 0
	for _, p := range t.Points {
		if p.Support > max {
			max = p.Support
		}
	}
	return max
}

// Class summarizes the shape of a trajectory.
type Class string

const (
	// Persistent signals appear in every analyzed quarter.
	Persistent Class = "persistent"
	// Emerging signals first appear after the first quarter and are
	// still present in the last.
	Emerging Class = "emerging"
	// Transient signals appear and vanish.
	Transient Class = "transient"
	// Absent combinations never signal (kept only when explicitly
	// tracked).
	Absent Class = "absent"
)

// Classify labels the trajectory. Edge cases are pinned down
// explicitly: an empty or all-zero-support series is Absent, and a
// single-quarter trajectory that signals in its only quarter is
// Persistent (it is present in every analyzed quarter — there is no
// cross-quarter shape to distinguish).
func (t *Trajectory) Classify() Class {
	if len(t.Points) == 0 {
		return Absent
	}
	n := t.Quarters()
	if n == 0 {
		return Absent
	}
	if len(t.Points) == 1 {
		return Persistent // signaled in its single analyzed quarter
	}
	first := t.Points[0].Signaled()
	last := t.Points[len(t.Points)-1].Signaled()
	switch {
	case n == len(t.Points):
		return Persistent
	case !first && last:
		return Emerging
	default:
		return Transient
	}
}

// Analysis is the cross-quarter result.
type Analysis struct {
	Quarters     []string
	Trajectories []Trajectory // sorted by peak support desc, then key

	// byKey indexes Trajectories by Key; Assemble builds it.
	byKey map[string]int
}

// ByClass partitions trajectories by class.
func (a *Analysis) ByClass() map[Class][]Trajectory {
	out := make(map[Class][]Trajectory)
	for _, t := range a.Trajectories {
		c := t.Classify()
		out[c] = append(out[c], t)
	}
	return out
}

// Find returns the trajectory for a combination key, or nil. It
// answers from the index Assemble builds over Trajectories as Assemble
// leaves them: an Analysis built without Assemble finds nothing.
func (a *Analysis) Find(key string) *Trajectory {
	if i, ok := a.byKey[key]; ok {
		return &a.Trajectories[i]
	}
	return nil
}

// Run mines every quarter independently with opts and assembles the
// cross-quarter trajectories of every combination that signals in at
// least one quarter. opts.TopK bounds the per-quarter signal list
// (0 = all).
func Run(quarters []*faers.Quarter, opts core.Options) (*Analysis, error) {
	if len(quarters) == 0 {
		return nil, fmt.Errorf("trend: no quarters")
	}
	labels := make([]string, len(quarters))
	results := make([]*core.Analysis, len(quarters))
	for i, q := range quarters {
		labels[i] = q.Label
		res, err := core.RunQuarter(q, opts)
		if err != nil {
			return nil, fmt.Errorf("trend: quarter %s: %w", q.Label, err)
		}
		results[i] = res
	}
	return Assemble(labels, results), nil
}

// Assemble builds the cross-quarter trajectory analysis from
// already-computed per-quarter results — the path the snapshot store
// takes, where every quarter was mined once, persisted, and is now
// being replayed from disk. labels[i] names results[i]; a nil result
// is treated as a quarter with no signals (it still occupies a point
// in every trajectory, so gaps stay visible).
func Assemble(labels []string, results []*core.Analysis) *Analysis {
	a := &Analysis{Quarters: append([]string{}, labels...)}
	traj := map[string]*Trajectory{}
	// best tracks, per combination, the strongest score whose reaction
	// set the trajectory currently carries. It must be kept separately
	// from the points: by the time a point is updated its Score already
	// equals the candidate's, so "is this the new overall maximum"
	// cannot be answered from the points alone.
	best := map[string]float64{}
	for qi, res := range results {
		if res == nil {
			continue
		}
		for _, s := range res.Signals {
			key := s.Key()
			t := traj[key]
			if t == nil {
				t = &Trajectory{
					Key:    key,
					Drugs:  s.Drugs,
					Points: make([]Point, len(labels)),
				}
				for j := range t.Points {
					t.Points[j] = Point{Quarter: labels[j]}
				}
				traj[key] = t
			}
			p := &t.Points[qi]
			// A combination can surface under several reaction sets in
			// one quarter; keep the strongest-scoring one per quarter.
			if p.Rank == 0 || s.Score > p.Score {
				p.Rank = s.Rank
				p.Score = s.Score
				p.Support = s.Support
				p.Confidence = s.Confidence
			}
			// The trajectory's Reactions follow the strongest-scoring
			// signal across ALL quarters.
			if len(t.Reactions) == 0 || s.Score > best[key] {
				t.Reactions = s.Reactions
				best[key] = s.Score
			}
		}
	}
	for _, t := range traj {
		t.Key, t.Drugs, t.Reactions = ownNames(t.Key, t.Drugs, t.Reactions)
		a.Trajectories = append(a.Trajectories, *t)
	}
	sort.Slice(a.Trajectories, func(i, j int) bool {
		pi, pj := a.Trajectories[i].PeakSupport(), a.Trajectories[j].PeakSupport()
		if pi != pj {
			return pi > pj
		}
		return a.Trajectories[i].Key < a.Trajectories[j].Key
	})
	a.byKey = make(map[string]int, len(a.Trajectories))
	for i := range a.Trajectories {
		a.byKey[a.Trajectories[i].Key] = i
	}
	return a
}

// ownNames copies a trajectory's key and names into one string and one
// list of its own. A decoded quarter's names are substrings of its
// snapshot section, and a trajectory outlives the quarter in the
// store's cached assembly: without the copy, one name would keep the
// whole section alive after the quarter is evicted.
func ownNames(key string, drugs, reactions []string) (string, []string, []string) {
	names := make([]string, 0, len(drugs)+len(reactions))
	names = append(append(names, drugs...), reactions...)
	n := len(key)
	for _, s := range names {
		n += len(s)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(key)
	for _, s := range names {
		b.WriteString(s)
	}
	all := b.String()
	off := len(key)
	for i, s := range names {
		names[i] = all[off : off+len(s)]
		off += len(s)
	}
	return all[:len(key)], clip(names[:len(drugs)]), clip(names[len(drugs):])
}

// clip returns l with its capacity cut to its length, so an append
// reallocates instead of overwriting a neighbour; an empty list is nil.
func clip(l []string) []string {
	if len(l) == 0 {
		return nil
	}
	return l[:len(l):len(l)]
}
