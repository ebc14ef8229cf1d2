// Package maras is the public API of the MARAS multi-drug adverse
// reaction analytics system, a from-scratch Go implementation of the
// methodology in "MARAS: Multi-Drug Adverse Reactions Analytics
// System" (Kakar, 2016; demonstrated at ICDE as the MeDIAR/MARAS
// line of work).
//
// MARAS detects adverse drug reactions caused by drug combinations
// (drug-drug interactions) from spontaneous adverse-event reports:
//
//   - reports are cleaned (misspelling snapping, duplicate removal)
//     and abstracted to drug/reaction transactions;
//   - closed drug→ADR association rules are mined with FP-Growth,
//     eliminating spurious partial rules (Lemma 3.4.2 of the paper);
//   - each multi-drug rule is grouped with its contextual sub-rules
//     into a Multi-level Contextual Association Cluster (MCAC);
//   - clusters are ranked by the exclusiveness measure — high when
//     the reactions follow the full combination but not any subset —
//     and validated against a curated interaction knowledge base.
//
// # Quick start
//
//	reports := []maras.Report{
//	    {ID: "1", Drugs: []string{"aspirin", "warfarin"}, Reactions: []string{"haemorrhage"}},
//	    // ... many more ...
//	}
//	analysis, err := maras.Analyze(reports, maras.DefaultOptions())
//	if err != nil { ... }
//	for _, sig := range analysis.Signals {
//	    fmt.Println(sig.Rank, sig.Drugs, "=>", sig.Reactions, sig.Score)
//	}
//
// Deeper integrations (FAERS file ingestion, SVG glyph rendering, the
// experiment harness) live in the cmd/ binaries; their building
// blocks are internal packages by design — the supported surface is
// this package plus the command-line tools.
package maras

import (
	"errors"
	"fmt"
	"time"

	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/knowledge"
	"maras/internal/obs"
	"maras/internal/rank"
)

// Report is one adverse-event report: the drugs a patient took and
// the reactions observed. Names are free-form; the pipeline
// normalizes case, strips dosage noise, and snaps rare misspellings
// to frequent vocabulary entries.
type Report struct {
	// ID identifies the report (FAERS primaryid or any unique string).
	ID string
	// Case optionally identifies the underlying case; reports sharing
	// a Case are treated as duplicates and collapsed.
	Case string
	// Expedited marks manufacturer expedited (serious) reports. When
	// Options.ExpeditedOnly is set, only expedited reports are mined,
	// matching the paper's FAERS selection.
	Expedited bool
	Drugs     []string
	Reactions []string
}

// RankingMethod selects how signals are ordered.
type RankingMethod string

const (
	// RankExclusiveness ranks by the paper's exclusiveness measure
	// over confidence (the MARAS default).
	RankExclusiveness RankingMethod = "exclusiveness"
	// RankExclusivenessLift ranks by exclusiveness over lift,
	// favoring rarer reactions.
	RankExclusivenessLift RankingMethod = "exclusiveness-lift"
	// RankConfidence ranks by raw rule confidence (baseline).
	RankConfidence RankingMethod = "confidence"
	// RankLift ranks by raw rule lift (baseline).
	RankLift RankingMethod = "lift"
	// RankImprovement ranks by Bayardo's improvement (baseline).
	RankImprovement RankingMethod = "improvement"
)

// Options tunes an analysis. Zero values fall back to defaults; start
// from DefaultOptions.
type Options struct {
	// MinSupport is the minimum number of reports a drug-reaction
	// combination needs (default 4). Lower catches rarer interactions
	// at the cost of more coincidental rules.
	MinSupport int
	// MinDrugs/MaxDrugs bound the combination size (defaults 2/5).
	MinDrugs int
	MaxDrugs int
	// Method is the ranking strategy (default RankExclusiveness).
	Method RankingMethod
	// Theta is the exclusiveness variation penalty θ ∈ [0,1]
	// (default 0.5).
	Theta float64
	// TopK bounds the returned signals (default 100; 0 = all).
	TopK int
	// ExpeditedOnly mines only expedited reports (default false for
	// the public API — callers often pre-filter).
	ExpeditedOnly bool
	// SpellCorrect enables misspelling snapping (default true).
	SpellCorrect bool
	// DropDuplicates enables duplicate-report removal (default true).
	DropDuplicates bool
	// CollectTrace records a per-stage execution trace of the run
	// (wall time, allocation volume, and domain counters per pipeline
	// stage) into Analysis.Trace. Off by default; the disabled path
	// costs nothing.
	CollectTrace bool
}

// DefaultOptions returns the paper-shaped defaults.
func DefaultOptions() Options {
	return Options{
		MinSupport:     4,
		MinDrugs:       2,
		MaxDrugs:       5,
		Method:         RankExclusiveness,
		Theta:          0.5,
		TopK:           100,
		SpellCorrect:   true,
		DropDuplicates: true,
	}
}

// Signal is one ranked drug-drug-interaction candidate.
type Signal struct {
	// Rank is the 1-based position under the chosen method.
	Rank int
	// Score is the method's score (exclusiveness by default).
	Score float64
	// Drugs is the interacting combination (cleaned names, sorted).
	Drugs []string
	// Reactions are the adverse reactions associated with it.
	Reactions []string
	// Support is the number of reports containing all drugs and all
	// reactions; Confidence and Lift are the target rule's measures.
	Support    int
	Confidence float64
	Lift       float64
	// Context lists the contextual sub-rules: how strongly each
	// proper subset of the drugs associates with the same reactions.
	Context []ContextRule
	// Known describes the matching curated interaction; empty Source
	// means the combination is not in the knowledge base (a candidate
	// novel interaction).
	Known *KnownInteraction
	// SeriousShare is the fraction of supporting reports marked with
	// a severe outcome (always 0 unless reports carry outcome data
	// via the FAERS pipeline).
	SeriousShare float64
	// OrganClasses are the MedDRA-style system organ classes of the
	// signal's reactions (deduplicated).
	OrganClasses []string
	// ReportIDs are the IDs of the supporting reports.
	ReportIDs []string
}

// ContextRule is one contextual sub-rule of a signal.
type ContextRule struct {
	Drugs      []string
	Confidence float64
	Lift       float64
	Support    int
}

// KnownInteraction describes a curated (already documented)
// interaction matching a signal.
type KnownInteraction struct {
	Severity  string
	Mechanism string
	Source    string
}

// StageTrace is one pipeline stage of an analysis run, recorded when
// Options.CollectTrace is set: the stage name (see StageNames for
// the order), its wall time and allocation volume, and its domain
// counters (reports_in, closed_itemsets, rules_kept, ...).
type StageTrace struct {
	Stage      string
	Duration   time.Duration
	AllocBytes uint64
	Counters   map[string]int64
}

// StageNames returns the pipeline stage names in execution order, as
// they appear in Analysis.Trace.
func StageNames() []string { return core.Options{}.Stages() }

// Analysis is a completed run.
type Analysis struct {
	// Signals are the ranked interaction candidates, best first.
	Signals []Signal
	// Reports / Drugs / Reactions summarize the cleaned dataset
	// (Table 5.1-style statistics).
	Reports   int
	Drugs     int
	Reactions int
	// DuplicatesRemoved and SpellingsFixed report cleaning activity.
	DuplicatesRemoved int
	SpellingsFixed    int
	// Trace holds the per-stage execution trace when
	// Options.CollectTrace was set, nil otherwise.
	Trace []StageTrace
}

// Analyze runs the MARAS pipeline over reports.
func Analyze(reports []Report, opts Options) (*Analysis, error) {
	if len(reports) == 0 {
		return nil, errors.New("maras: no reports")
	}
	copts, err := toCoreOptions(opts)
	if err != nil {
		return nil, err
	}
	var tracer *obs.Tracer
	if opts.CollectTrace {
		tracer = obs.NewTracer(nil)
		copts.Tracer = tracer
	}
	raw := make([]faers.Report, len(reports))
	for i, r := range reports {
		code := "DIR"
		if r.Expedited {
			code = "EXP"
		}
		id := r.ID
		if id == "" {
			id = fmt.Sprintf("report-%d", i+1)
		}
		raw[i] = faers.Report{
			PrimaryID:  id,
			CaseID:     r.Case,
			ReportCode: code,
			Drugs:      r.Drugs,
			Reactions:  r.Reactions,
		}
	}
	a, err := core.Run(raw, copts)
	if err != nil {
		return nil, err
	}
	out := fromCore(a)
	if tracer != nil {
		for _, r := range tracer.Records() {
			out.Trace = append(out.Trace, StageTrace{
				Stage:      r.Name,
				Duration:   r.Duration(),
				AllocBytes: r.AllocBytes,
				Counters:   r.Counters,
			})
		}
	}
	return out, nil
}

func toCoreOptions(o Options) (core.Options, error) {
	c := core.NewOptions()
	if o.MinSupport > 0 {
		c.MinSupport = o.MinSupport
	}
	if o.MinDrugs > 0 {
		c.MinDrugs = o.MinDrugs
	}
	if o.MaxDrugs > 0 {
		c.MaxDrugs = o.MaxDrugs
	}
	if o.Theta != 0 {
		c.Theta = o.Theta
	}
	c.TopK = o.TopK
	c.ExpeditedOnly = o.ExpeditedOnly
	c.Cleaning.SpellCorrect = o.SpellCorrect
	c.Cleaning.DropDuplicateReports = o.DropDuplicates
	switch o.Method {
	case "", RankExclusiveness:
		c.Method = rank.ByExclusivenessConf
	case RankExclusivenessLift:
		c.Method = rank.ByExclusivenessLift
	case RankConfidence:
		c.Method = rank.ByConfidence
	case RankLift:
		c.Method = rank.ByLift
	case RankImprovement:
		c.Method = rank.ByImprovement
	default:
		return core.Options{}, fmt.Errorf("maras: unknown ranking method %q", o.Method)
	}
	return c, nil
}

func fromCore(a *core.Analysis) *Analysis {
	out := &Analysis{
		Reports:           a.Stats.Reports,
		Drugs:             a.Stats.Drugs,
		Reactions:         a.Stats.Reactions,
		DuplicatesRemoved: a.Cleaning.DuplicateReports,
		SpellingsFixed:    a.Cleaning.DrugSpellingsFixed + a.Cleaning.ReacSpellingsFixed,
	}
	dict := a.Dict()
	out.Signals = make([]Signal, len(a.Signals))
	for i, s := range a.Signals {
		sig := Signal{
			Rank:         s.Rank,
			Score:        s.Score,
			Drugs:        s.Drugs,
			Reactions:    s.Reactions,
			Support:      s.Support,
			Confidence:   s.Confidence,
			Lift:         s.Lift,
			SeriousShare: s.SeriousShare,
			ReportIDs:    s.ReportIDs,
		}
		for _, soc := range s.SOCs {
			sig.OrganClasses = append(sig.OrganClasses, string(soc))
		}
		for _, r := range s.Cluster.ContextRules() {
			sig.Context = append(sig.Context, ContextRule{
				Drugs:      dict.SortedNames(r.Antecedent),
				Confidence: r.Confidence,
				Lift:       r.Lift,
				Support:    r.Support,
			})
		}
		if s.Known != nil {
			sig.Known = &KnownInteraction{
				Severity:  s.Known.Severity.String(),
				Mechanism: s.Known.Mechanism,
				Source:    s.Known.Source,
			}
		}
		out.Signals[i] = sig
	}
	return out
}

// Known reports whether the signal matches a curated interaction.
func (s *Signal) IsKnown() bool { return s.Known != nil }

// KnownInteractions returns the embedded curated knowledge base as
// (drug combination, reactions, severity, source) rows — useful for
// seeding test corpora and for UI legends.
func KnownInteractions() []struct {
	Drugs     []string
	Reactions []string
	Severity  string
	Source    string
} {
	all := knowledge.Builtin().All()
	out := make([]struct {
		Drugs     []string
		Reactions []string
		Severity  string
		Source    string
	}, len(all))
	for i, e := range all {
		out[i].Drugs = e.Drugs
		out[i].Reactions = e.Reactions
		out[i].Severity = e.Severity.String()
		out[i].Source = e.Source
	}
	return out
}
