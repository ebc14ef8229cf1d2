// Package core wires the MARAS pipeline end to end (Fig 1.1 and
// Section 5.2): report cleaning, transaction encoding, direct
// closed-itemset mining with LCM, drug→ADR rule generation,
// multi-level contextual cluster construction, exclusiveness ranking,
// knowledge-base validation, and linking every signal back to the raw
// reports that support it. The miner hands each target's occurrence
// and closed bit to the linker, by the index rule generation returns
// per rule, so linking types support by definition (Lemma 3.4.2) and
// lists reports without recounting a tidset; the mined sets are
// dropped after rule generation. Rule generation fills one run-scoped memo
// of exact supports (assoc.Evaluator), counting through one fork per
// worker whose memos it merges back; cluster construction reads it,
// through one read-only fork per worker when it runs in parallel.
// Cleaning, mining, rule generation, cluster construction and linking
// fan out over GOMAXPROCS workers (package par); encoding and ranking
// are serial, and the output does not depend on the worker count.
// Cleaning hands encoding each domain's names once, sorted, and the
// kept reports as name ranks, so encoding interns each distinct name
// once (the dictionary issues IDs in first-seen order) and fills the
// transaction DB's one item slab. FP-Growth runs
// only when Options.CountRules asks for the full frequent-itemset space
// of Fig 5.1. The tests hold Run to a by-definition oracle of the
// whole pipeline: closure as intent(extent(S)) over every itemset,
// every context X ⊊ A, Formula 3.5 summed term by term, and support
// types, report IDs and serious shares from a scan.
//
// Each stage is instrumented by one obs.Do call, which gives it a live
// "stage:<name>" span, a pprof stage=<name> label and a record on
// Options.Tracer with its domain counters.
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"maras/internal/assoc"
	"maras/internal/cleaning"
	"maras/internal/faers"
	"maras/internal/fpgrowth"
	"maras/internal/knowledge"
	"maras/internal/lcm"
	"maras/internal/mcac"
	"maras/internal/meddra"
	"maras/internal/obs"
	"maras/internal/par"
	"maras/internal/rank"
	"maras/internal/resilience"
	"maras/internal/txdb"
	"maras/internal/types"
)

// Pipeline stage names, in execution order, as they appear in a
// trace. Every stage also records domain counters (see the obs
// package and DESIGN.md "Observability").
const (
	StageClean  = "clean"  // expedited/suspect filters + cleaning
	StageEncode = "encode" // dictionary interning + transaction DB
	StageMine   = "mine"   // LCM closed target itemsets (Lemma 3.4.2)
	// StageClosure runs only under Options.CountRules: FP-Growth mines
	// the full frequent set and LCM every closed set, to size Fig 5.1's
	// rule spaces and the frequent→closed reduction.
	StageClosure = "closure_filter"
	StageRules   = "rule_gen"      // drug→ADR target rule generation
	StageCluster = "mcac_build"    // multi-level contextual clusters
	StageRank    = "rank"          // exclusiveness (or baseline) ranking
	StageLink    = "validate_link" // knowledge validation + report linking
)

// StageOrder lists every trace stage name in pipeline order. A run
// records StageClosure only under Options.CountRules; Options.Stages
// gives the stages a particular run records.
func StageOrder() []string {
	return []string{
		StageClean, StageEncode, StageMine, StageClosure,
		StageRules, StageCluster, StageRank, StageLink,
	}
}

// Stages lists the trace stage names a run with these options
// records, in pipeline order.
func (o Options) Stages() []string {
	var out []string
	for _, st := range StageOrder() {
		if st != StageClosure || o.CountRules {
			out = append(out, st)
		}
	}
	return out
}

// Options configures a pipeline run. NewOptions supplies the paper's
// defaults.
type Options struct {
	Cleaning cleaning.Options

	// ExpeditedOnly keeps only EXP reports, as the paper does.
	ExpeditedOnly bool

	// SuspectOnly narrows each report to its suspect drugs (role
	// codes PS/SS/I) before mining, the standard pharmacovigilance
	// restriction that drops concomitant-medication noise. Reports
	// without role data keep all their drugs.
	SuspectOnly bool

	// MinSupport is the absolute minimum support for mining; the
	// paper runs with a low threshold to catch rare combinations.
	MinSupport int
	// MaxItems caps mined itemset length (drugs+reactions) as a
	// safety valve against pathological reports.
	MaxItems int

	// MinDrugs / MaxDrugs bound the antecedent size of target rules.
	MinDrugs int
	MaxDrugs int

	// Method is the cluster ranking strategy.
	Method rank.Method
	// Theta is the exclusiveness CV penalty θ ∈ [0,1].
	Theta float64
	// Decay weights contextual levels; nil = linear (paper).
	Decay rank.Decay

	// TopK bounds the number of returned signals; 0 = all.
	TopK int

	// CountRules additionally sizes the unfiltered and filtered rule
	// spaces (Fig 5.1's Total and Filtered series). Off by default:
	// the total-rule count walks power sets of every frequent
	// itemset and exists only for the reduction experiment.
	CountRules bool

	// Knowledge is the validation base; nil = builtin.
	Knowledge *knowledge.Base

	// Tracer, when non-nil, records a per-stage trace of the run
	// (wall time, allocation volume, domain counters). A nil tracer
	// costs nothing on the hot path.
	Tracer *obs.Tracer
}

// NewOptions returns the paper-shaped defaults.
func NewOptions() Options {
	return Options{
		Cleaning:      cleaning.Defaults(),
		ExpeditedOnly: true,
		MinSupport:    4,
		MaxItems:      10,
		MinDrugs:      2,
		MaxDrugs:      5,
		Method:        rank.ByExclusivenessConf,
		Theta:         0.5,
		TopK:          100,
	}
}

// Signal is one ranked drug-drug-interaction candidate.
type Signal struct {
	Rank  int
	Score float64

	Drugs     []string // sorted drug names
	Reactions []string // sorted reaction terms

	Support     int
	Confidence  float64
	Lift        float64
	SupportType assoc.SupportType

	// Cluster is the full MCAC backing the signal (for glyphs and
	// drill-down).
	Cluster *mcac.Cluster

	// Known is the matching curated interaction, nil if the
	// combination is not in the knowledge base — i.e. a candidate
	// novel interaction.
	Known *knowledge.Interaction

	// SeriousShare is the fraction of supporting reports carrying a
	// severe outcome code (death, hospitalization, ...), the severity
	// criterion the interactive interface filters on.
	SeriousShare float64

	// SOCs are the MedDRA-style system organ classes of the signal's
	// reactions, deduplicated, for organ-system triage.
	SOCs []meddra.SOC

	// ReportIDs are the primary IDs of the reports containing all of
	// the signal's drugs and reactions (the raw-report link of
	// Section 4.1).
	ReportIDs []string
}

// Key returns the canonical drug-combination key of the signal.
func (s *Signal) Key() string { return knowledge.DrugKey(s.Drugs) }

// Counts tracks the rule-space reduction of Fig 5.1.
type Counts struct {
	TotalRules    int // classical ARM rule space: Σ(2^|U|−2) over frequent U
	FilteredRules int // drug→ADR rules from all frequent itemsets
	MCACs         int // closed multi-drug clusters scored
}

// Analysis is a completed pipeline run.
type Analysis struct {
	Stats    txdb.Stats
	Cleaning cleaning.Stats
	Counts   Counts
	Signals  []Signal

	db      *txdb.DB
	dict    *types.Dictionary
	reports *ReportSet // original reports, input order
}

// DB exposes the transaction database (read-only) for drill-down and
// visualization layers.
func (a *Analysis) DB() *txdb.DB { return a.db }

// Dict exposes the dictionary used to encode the reports.
func (a *Analysis) Dict() *types.Dictionary { return a.dict }

// EncodeReports runs the ingest half of the pipeline — expedited
// filtering, cleaning, and dictionary encoding into a frozen
// transaction database — so experiment harnesses can drive the mining
// layers directly.
func EncodeReports(reports []faers.Report, opts Options) (*txdb.DB, cleaning.Stats, error) {
	return encodeReports(context.Background(), reports, opts)
}

// encodeReports is EncodeReports under ctx: each stage runs as one
// obs.Do unit (see run).
func encodeReports(ctx context.Context, reports []faers.Report, opts Options) (*txdb.DB, cleaning.Stats, error) {
	var (
		cleaned *cleaning.Cleaned
		cstats  cleaning.Stats
	)
	obs.Do(ctx, opts.Tracer, obs.StageSpanPrefix+StageClean, func(_ context.Context, st *obs.Stage) {
		cleaned, cstats = cleaning.CleanIDs(reports, opts.Cleaning, cleaning.Selection{
			ExpeditedOnly: opts.ExpeditedOnly,
			SuspectOnly:   opts.SuspectOnly,
		})
		st.Count("reports_in", int64(cstats.ReportsIn))
		st.Count("reports_out", int64(cstats.ReportsOut))
		st.Count("duplicates_removed", int64(cstats.DuplicateReports))
		st.Count("spellings_fixed", int64(cstats.DrugSpellingsFixed+cstats.ReacSpellingsFixed))
	}, obs.LabelStage, StageClean)
	if len(cleaned.Kept) == 0 {
		return nil, cstats, fmt.Errorf("core: no usable reports after cleaning (in=%d)", cstats.ReportsIn)
	}
	var (
		db  *txdb.DB
		err error
	)
	obs.Do(ctx, opts.Tracer, obs.StageSpanPrefix+StageEncode, func(_ context.Context, st *obs.Stage) {
		if db, err = encode(reports, cleaned); err == nil {
			st.Count("transactions", int64(db.Len()))
			st.Count("dictionary_items", int64(db.Dict().Len()))
		}
	}, obs.LabelStage, StageEncode)
	return db, cstats, err
}

// encode builds the frozen transaction DB of the reports cleaning kept.
// It walks them in order and interns each name the first time it meets
// its rank, so items are issued in first-seen order, and within a
// report drugs before reactions, each by name: the order interning
// every occurrence of the named reports gives. A name that cleans to
// both a drug and a reaction is an error: the vocabularies must be
// disjoint (types.Dictionary.Intern).
func encode(reports []faers.Report, c *cleaning.Cleaned) (*txdb.DB, error) {
	dict := types.NewDictionarySized(len(c.Drugs) + len(c.Reactions))
	db := txdb.NewSized(dict, len(c.Kept), c.Items)
	drugs := newInterner(dict, c.Drugs, types.DomainDrug)
	reacs := newInterner(dict, c.Reactions, types.DomainReaction)
	var items types.Itemset
	for k, src := range c.Kept {
		var err error
		if items, err = drugs.append(items[:0], c.DrugRanks(k)); err != nil {
			return nil, err
		}
		if items, err = reacs.append(items, c.ReactionRanks(k)); err != nil {
			return nil, err
		}
		db.Add(reports[src].PrimaryID, items)
	}
	db.Freeze()
	return db, nil
}

// interner issues the items of one domain's cleaned names, by rank.
type interner struct {
	dict  *types.Dictionary
	names []string
	dom   types.Domain
	items []types.Item // by rank, NoItem until issued
}

func newInterner(dict *types.Dictionary, names []string, dom types.Domain) *interner {
	in := &interner{dict: dict, names: names, dom: dom, items: make([]types.Item, len(names))}
	for r := range in.items {
		in.items[r] = types.NoItem
	}
	return in
}

// append appends to items the item of each rank, interning its name
// on first sight.
func (in *interner) append(items types.Itemset, ranks []int32) (types.Itemset, error) {
	for _, r := range ranks {
		if in.items[r] == types.NoItem {
			name := in.names[r]
			if in.dict.Lookup(name) != types.NoItem {
				return nil, fmt.Errorf("core: %q cleans to both a drug and a reaction", name)
			}
			in.items[r] = in.dict.Intern(name, in.dom)
		}
		items = append(items, in.items[r])
	}
	return items, nil
}

// Run executes the full pipeline over raw reports.
func Run(reports []faers.Report, opts Options) (*Analysis, error) {
	return run(context.Background(), reports, opts)
}

// run is the pipeline body. Every stage is one obs.Do unit: a live
// "stage:<name>" child of ctx's active span, a pprof stage=<name>
// label so continuous-profiling captures can say which stage the
// cycles went to, and a record on opts.Tracer.
func run(ctx context.Context, reports []faers.Report, opts Options) (*Analysis, error) {
	if opts.MinSupport < 1 {
		opts.MinSupport = 1
	}
	if opts.MinDrugs < 2 {
		opts.MinDrugs = 2
	}
	if opts.Knowledge == nil {
		opts.Knowledge = knowledge.Builtin()
	}

	db, cstats, err := encodeReports(ctx, reports, opts)
	if err != nil {
		return nil, err
	}
	dict := db.Dict()

	// Mine the closed itemsets the rule base is built from (Lemma
	// 3.4.2) directly, without materializing the frequent set, and only
	// those that can become targets, each with its occurrence.
	var mined *lcm.Mined
	obs.Do(ctx, opts.Tracer, obs.StageSpanPrefix+StageMine, func(_ context.Context, st *obs.Stage) {
		mined = lcm.Mine(db, lcm.Options{MinSupport: opts.MinSupport, MaxLen: opts.MaxItems, MinDrugs: opts.MinDrugs})
		st.Count("closed_itemsets", int64(len(mined.Sets)))
	}, obs.LabelStage, StageMine)

	// Fig 5.1 sizes the rule spaces over every frequent itemset, the
	// only use of the full frequent set, and the frequent→closed
	// reduction over every closed set, targets or not.
	var counts Counts
	if opts.CountRules {
		obs.Do(ctx, opts.Tracer, obs.StageSpanPrefix+StageClosure, func(_ context.Context, st *obs.Stage) {
			frequent := fpgrowth.Mine(db, fpgrowth.Options{MinSupport: opts.MinSupport, MaxLen: opts.MaxItems})
			all := lcm.MineClosed(db, lcm.Options{MinSupport: opts.MinSupport, MaxLen: opts.MaxItems})
			counts.TotalRules = assoc.CountTraditionalRules(frequent)
			counts.FilteredRules = assoc.CountDrugADRRules(dict, frequent)
			st.Count("frequent_itemsets", int64(len(frequent)))
			st.Count("closed_itemsets", int64(len(all)))
			st.Count("itemsets_dropped", int64(len(frequent)-len(all)))
		}, obs.LabelStage, StageClosure)
	}

	// One memo of exact supports serves rule generation and every
	// cluster (read-only once clusters fan out); it lives only as long
	// as this run.
	//
	// The rules take over, by index, what the miner delivered with
	// their itemsets, which are then dropped; the rules' items have
	// their own backing.
	ev := assoc.NewEvaluator(db)
	var (
		targets []assoc.Rule
		from    []int32 // mined set of each target
	)
	obs.Do(ctx, opts.Tracer, obs.StageSpanPrefix+StageRules, func(_ context.Context, st *obs.Stage) {
		targets, from = assoc.FromItemsets(ev, mined.Sets, assoc.GenOptions{
			MinDrugs: opts.MinDrugs,
			MaxDrugs: opts.MaxDrugs,
		})
		mined.Sets = nil
		st.Count("rules_kept", int64(len(targets)))
	}, obs.LabelStage, StageRules)

	// Every target holds at least MinDrugs ≥ 2 drugs, so BuildAll
	// skips none and clusters[k] is built from targets[k], which
	// linking relies on to find each target's occurrence.
	var clusters []mcac.Cluster
	obs.Do(ctx, opts.Tracer, obs.StageSpanPrefix+StageCluster, func(_ context.Context, st *obs.Stage) {
		clusters = mcac.BuildAll(ev, targets)
		st.Count("clusters_built", int64(len(clusters)))
	}, obs.LabelStage, StageCluster)
	// from is as long as targets; reading it rather than targets lets
	// the target slice go once clusters hold their copies.
	if len(clusters) != len(from) {
		return nil, fmt.Errorf("core: %d clusters built from %d targets; each target must hold at least two drugs", len(clusters), len(from))
	}
	counts.MCACs = len(clusters)

	var ranked []rank.Ranked
	obs.Do(ctx, opts.Tracer, obs.StageSpanPrefix+StageRank, func(_ context.Context, st *obs.Stage) {
		ranked = rank.Rank(clusters, opts.Method, rank.Options{Theta: opts.Theta, Decay: opts.Decay})
		st.Count("clusters_ranked", int64(len(ranked)))
		if opts.TopK > 0 && len(ranked) > opts.TopK {
			ranked = ranked[:opts.TopK]
		}
		st.Count("signals_kept", int64(len(ranked)))
	}, obs.LabelStage, StageRank)

	var signals []Signal
	obs.Do(ctx, opts.Tracer, obs.StageSpanPrefix+StageLink, func(_ context.Context, st *obs.Stage) {
		signals = make([]Signal, len(ranked))
		l := newLinker(db, reports, opts.Knowledge)
		// Every signal's report IDs are a window of one array, as long
		// as its support.
		ends := make([]int, len(ranked))
		total := 0
		for i := range ranked {
			total += ranked[i].Cluster.Target.Support
			ends[i] = total
		}
		ids := make([]string, total)
		// Every signal is validated and linked on its own, from its
		// target's occurrence, so they are linked on a pool of
		// GOMAXPROCS workers.
		par.Do(len(ranked), runtime.GOMAXPROCS(0), func(_, i int) {
			k := int(from[ranked[i].Index])
			reportIDs := ids[ends[i]-ranked[i].Cluster.Target.Support : ends[i] : ends[i]]
			signals[i] = l.link(i, ranked[i], mined.Occurrence(k), mined.Closed(k), reportIDs)
		})
		known := 0
		for i := range signals {
			if signals[i].Known != nil {
				known++
			}
		}
		st.Count("signals", int64(len(signals)))
		st.Count("known", int64(known))
		st.Count("novel", int64(len(signals)-known))
	}, obs.LabelStage, StageLink)

	return &Analysis{
		Stats:    db.Stats(),
		Cleaning: cstats,
		Counts:   counts,
		Signals:  signals,
		db:       db,
		dict:     dict,
		reports:  ReportList(reports),
	}, nil
}

// linker validates ranked clusters and links them to their reports.
// It is built once per run and only read while linking, so workers
// share it.
type linker struct {
	db      *txdb.DB
	kb      *knowledge.Base
	serious []bool       // by TID: some raw report with its ID is serious
	socs    []meddra.SOC // by item: a reaction's system organ class
	// idsAscend is set when report IDs ascend with TIDs, so that an
	// occurrence lists its report IDs already sorted.
	idsAscend bool
}

func newLinker(db *txdb.DB, reports []faers.Report, kb *knowledge.Base) *linker {
	byID := make(map[string]bool)
	for i := range reports {
		if reports[i].Serious() {
			byID[reports[i].PrimaryID] = true
		}
	}
	serious := make([]bool, db.Len())
	for tid := range serious {
		serious[tid] = byID[db.Tx(txdb.TID(tid)).ReportID]
	}
	dict := db.Dict()
	socs := make([]meddra.SOC, dict.Len())
	for it := range socs {
		if dict.IsReaction(types.Item(it)) {
			socs[it] = meddra.Classify(dict.Name(types.Item(it)))
		}
	}
	idsAscend := true
	for tid := 1; tid < db.Len() && idsAscend; tid++ {
		idsAscend = db.Tx(txdb.TID(tid-1)).ReportID <= db.Tx(txdb.TID(tid)).ReportID
	}
	return &linker{db: db, kb: kb, serious: serious, socs: socs, idsAscend: idsAscend}
}

// link turns the cluster ranked at position i into its signal, given
// its target's occurrence, the ascending TIDs of the reports that
// contain the target, and whether the target is closed. The support
// type follows from those by definition (assoc.ClassifyClosed), with
// nothing recounted. The signal's report IDs fill ids, which holds
// one per TID.
func (l *linker) link(i int, r rank.Ranked, occ []txdb.TID, closed bool, ids []string) Signal {
	c := r.Cluster
	dict := l.db.Dict()
	drugs := dict.SortedNames(c.Target.Antecedent)
	// Reactions in name order, as SortedNames lists them, and their
	// organ classes deduplicated in that order, as ClassifyAll would.
	reacItems := slices.Clone(c.Target.Consequent)
	slices.SortFunc(reacItems, func(a, b types.Item) int {
		return strings.Compare(dict.Name(a), dict.Name(b))
	})
	reacs := make([]string, len(reacItems))
	var socs []meddra.SOC
	for j, it := range reacItems {
		reacs[j] = dict.Name(it)
		if !slices.Contains(socs, l.socs[it]) {
			socs = append(socs, l.socs[it])
		}
	}
	nSerious := 0
	for j, tid := range occ {
		ids[j] = l.db.Tx(tid).ReportID
		if l.serious[tid] {
			nSerious++
		}
	}
	if !l.idsAscend {
		sort.Strings(ids)
	}
	seriousShare := 0.0
	if len(ids) > 0 {
		seriousShare = float64(nSerious) / float64(len(ids))
	}
	return Signal{
		Rank:         i + 1,
		Score:        r.Score,
		Drugs:        drugs,
		Reactions:    reacs,
		Support:      c.Target.Support,
		Confidence:   c.Target.Confidence,
		Lift:         c.Target.Lift,
		SupportType:  assoc.ClassifyClosed(l.db, len(c.Target.Antecedent)+len(c.Target.Consequent), occ, closed),
		Cluster:      c,
		Known:        l.kb.Lookup(drugs),
		SeriousShare: seriousShare,
		SOCs:         socs,
		ReportIDs:    ids,
	}
}

// RunQuarter is a convenience wrapper: assemble the quarter's reports
// and Run.
func RunQuarter(q *faers.Quarter, opts Options) (*Analysis, error) {
	return Run(q.Reports(), opts)
}

// RunContext is Run under ctx. Every stage runs as one obs.Do unit,
// so when ctx carries an active trace span (see obs.StartSpan) each
// stage is a live "stage:<name>" child of it, with real start times,
// and a run that fails mid-pipeline still shows the stages it
// completed. A mining-backed request (or a traced startup mine) is
// thus explainable in the same journal as store-backed serving. Ahead
// of the pipeline sits the core/mine failpoint.
func RunContext(ctx context.Context, reports []faers.Report, opts Options) (*Analysis, error) {
	// The core/mine failpoint sits ahead of the pipeline so chaos runs
	// can stall or fail a quarter's mining without touching real data.
	if err := resilience.Inject(resilience.FPMine); err != nil {
		return nil, fmt.Errorf("core: mining aborted: %w", err)
	}
	return run(ctx, reports, opts)
}

// FilterSignals returns the signals mentioning the given drug or
// reaction name — the search behaviour of the interactive interface
// (Section 4.1). Matching is case-insensitive: cleaned drug names are
// upper-case and reaction terms sentence-case, and a user searching
// "aspirin" means both.
func (a *Analysis) FilterSignals(name string) []Signal {
	var out []Signal
	for _, s := range a.Signals {
		if containsFold(s.Drugs, name) || containsFold(s.Reactions, name) {
			out = append(out, s)
		}
	}
	return out
}

// NovelSignals returns signals absent from the knowledge base — the
// "unknown drug-drug interactions" the interestingness preference
// targets.
func (a *Analysis) NovelSignals() []Signal {
	var out []Signal
	for _, s := range a.Signals {
		if s.Known == nil {
			out = append(out, s)
		}
	}
	return out
}

// SignalsBySOC returns the signals whose reactions touch the given
// system organ class — organ-system triage for the interactive
// interface.
func (a *Analysis) SignalsBySOC(soc meddra.SOC) []Signal {
	var out []Signal
	for _, s := range a.Signals {
		for _, c := range s.SOCs {
			if c == soc {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// SeriousSignals returns signals whose supporting reports carry a
// severe outcome at least as often as minShare — the "interactions
// that may lead to particularly severe adverse reactions" filter of
// Section 4.1.
func (a *Analysis) SeriousSignals(minShare float64) []Signal {
	var out []Signal
	for _, s := range a.Signals {
		if s.SeriousShare >= minShare {
			out = append(out, s)
		}
	}
	return out
}

func containsFold(s []string, v string) bool {
	for _, x := range s {
		if strings.EqualFold(x, v) {
			return true
		}
	}
	return false
}
