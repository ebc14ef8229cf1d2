// Package cleaning prepares raw FAERS reports for mining ("The first
// step in the mining process is data preparation and cleaning ...
// some preliminary cleaning on drug names and ADRs to remove
// duplication and correct misspellings", Section 5.2):
//
//   - string normalization (case, whitespace, punctuation noise,
//     dosage suffixes),
//   - vocabulary-based misspelling correction: rare names are snapped
//     to a frequent name within small edit distance,
//   - within-report deduplication of drugs and reactions,
//   - cross-report duplicate elimination (same case reported through
//     multiple channels or versions).
package cleaning

import (
	"runtime"
	"slices"
	"sort"
	"strings"

	"maras/internal/faers"
	"maras/internal/par"
)

// Options tunes the cleaning passes.
type Options struct {
	// SpellCorrect enables vocabulary snapping of rare names.
	SpellCorrect bool
	// MinCanonCount is the occurrence count a name needs to be
	// considered a canonical spelling (default 5).
	MinCanonCount int
	// MaxEditDistance is the maximum Damerau-Levenshtein distance a
	// rare name may be from a canonical one to snap (default 1 —
	// report-entry typos are overwhelmingly single edits — and never
	// more than ~len/4, so short names must match closely).
	MaxEditDistance int
	// MinCountRatio requires the canonical name to be at least this
	// many times more frequent than the rare spelling before
	// snapping (default 10). Without it, legitimate rare drugs get
	// merged into popular near-neighbors.
	MinCountRatio int
	// DropDuplicateReports removes reports whose (case ID) or whose
	// full normalized content duplicates an earlier report.
	DropDuplicateReports bool
}

// Defaults returns the options used by the paper-shaped pipeline.
func Defaults() Options {
	return Options{
		SpellCorrect:         true,
		MinCanonCount:        5,
		MaxEditDistance:      1,
		MinCountRatio:        10,
		DropDuplicateReports: true,
	}
}

func (o Options) normalized() Options {
	if o.MinCanonCount <= 0 {
		o.MinCanonCount = 5
	}
	if o.MaxEditDistance <= 0 {
		o.MaxEditDistance = 1
	}
	if o.MinCountRatio <= 0 {
		o.MinCountRatio = 10
	}
	return o
}

// Stats reports what cleaning did, for pipeline logs and tests.
type Stats struct {
	ReportsIn            int
	ReportsOut           int
	DuplicateReports     int
	EmptyReports         int // dropped: no drugs or no reactions after cleaning
	DrugSpellingsFixed   int
	ReacSpellingsFixed   int
	WithinReportDupDrugs int
	WithinReportDupReacs int
}

// NormalizeDrug canonicalizes a verbatim drug name: trim, uppercase,
// collapse whitespace, strip trailing dosage/form annotations
// ("ASPIRIN 81MG TAB" → "ASPIRIN", "ASPIRIN."→"ASPIRIN").
func NormalizeDrug(name string) string {
	s := normalizeCommon(strings.ToUpper(name))
	words := strings.Fields(s)
	// Drop trailing tokens that are dosage numbers or form words.
	for len(words) > 1 && isDoseToken(words[len(words)-1]) {
		words = words[:len(words)-1]
	}
	return strings.Join(words, " ")
}

// NormalizeReaction canonicalizes a reaction term to MedDRA-like
// sentence case with collapsed whitespace ("acute RENAL failure" →
// "Acute renal failure").
func NormalizeReaction(term string) string {
	s := normalizeCommon(term)
	if s == "" {
		return ""
	}
	s = strings.ToLower(s)
	return strings.ToUpper(s[:1]) + s[1:]
}

func normalizeCommon(s string) string {
	s = strings.TrimSpace(s)
	s = strings.Trim(s, ".,;:")
	var b strings.Builder
	b.Grow(len(s))
	space := false
	for _, r := range s {
		switch {
		case r == ' ' || r == '\t' || r == '_':
			space = true
		default:
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			b.WriteRune(r)
		}
	}
	return b.String()
}

var doseSuffixes = map[string]bool{
	"TAB": true, "TABS": true, "TABLET": true, "TABLETS": true,
	"CAP": true, "CAPS": true, "CAPSULE": true, "CAPSULES": true,
	"INJ": true, "INJECTION": true, "SOLUTION": true, "ORAL": true,
	"MG": true, "MCG": true, "ML": true, "G": true, "IU": true,
}

// isDoseToken reports whether tok is dosage/form noise: a bare form
// word ("TAB"), or a token with digits whose letter runs are all unit
// or form words ("81MG", "0.5ML", "4MG/5ML", "100").
func isDoseToken(tok string) bool {
	if doseSuffixes[tok] {
		return true
	}
	hasDigit := false
	run := 0 // start of current letter run
	for i := 0; i <= len(tok); i++ {
		var c byte
		if i < len(tok) {
			c = tok[i]
		}
		isLetter := c >= 'A' && c <= 'Z'
		if isLetter {
			continue
		}
		if i > run && !doseSuffixes[tok[run:i]] {
			return false // letter run that is not a unit word
		}
		run = i + 1
		if c >= '0' && c <= '9' {
			hasDigit = true
		} else if i < len(tok) && c != '.' && c != '/' && c != '-' && c != '%' {
			return false
		}
	}
	return hasDigit
}

// EditDistance returns the Damerau-Levenshtein distance (with
// adjacent transposition) between a and b, the notion of "misspelling
// closeness" the corrector uses.
func EditDistance(a, b string) int {
	var r dpRows
	return r.distance(a, b)
}

// dpRows holds the three rolling rows of the edit-distance dynamic
// program, so a caller comparing many pairs allocates them once.
type dpRows struct{ prev2, prev, cur []int }

func (r *dpRows) distance(a, b string) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	if cap(r.cur) < lb+1 {
		r.prev2 = make([]int, lb+1)
		r.prev = make([]int, lb+1)
		r.cur = make([]int, lb+1)
	}
	prev2, prev, cur := r.prev2[:lb+1], r.prev[:lb+1], r.cur[:lb+1]
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // deletion
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitution
				m = v
			}
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if v := prev2[j-2] + 1; v < m { // transposition
					m = v
				}
			}
			cur[j] = m
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

// Corrector snaps rare spellings to canonical vocabulary entries. It
// reuses its edit-distance rows across calls, so it is not safe for
// concurrent use; Clean gives each worker its own rows over one shared
// vocabulary.
type Corrector struct {
	opts Options
	// canon maps the first two letters to canonical names with that
	// prefix, a cheap candidate filter (misspellings in report data
	// overwhelmingly preserve the initial letters).
	canon  map[string][]canonEntry
	counts map[string]int
	rows   dpRows
}

type canonEntry struct {
	name  string
	count int
}

// NewCorrector builds a corrector from observed name counts.
func NewCorrector(counts map[string]int, opts Options) *Corrector {
	opts = opts.normalized()
	c := &Corrector{opts: opts, canon: make(map[string][]canonEntry), counts: counts}
	for name, n := range counts {
		if n >= opts.MinCanonCount {
			key := prefixKey(name)
			c.canon[key] = append(c.canon[key], canonEntry{name, n})
		}
	}
	for _, entries := range c.canon {
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].count != entries[j].count {
				return entries[i].count > entries[j].count
			}
			return entries[i].name < entries[j].name
		})
	}
	return c
}

// fork returns a Corrector over c's vocabulary with edit-distance rows
// of its own, so it can correct on another goroutine while c does.
func (c *Corrector) fork() *Corrector {
	return &Corrector{opts: c.opts, canon: c.canon, counts: c.counts}
}

func prefixKey(name string) string {
	if len(name) < 2 {
		return name
	}
	return name[:2]
}

// Correct returns the canonical spelling for name, or name itself if
// it is already canonical or no close canonical candidate exists.
// Ties go to the most frequent candidate.
func (c *Corrector) Correct(name string) (string, bool) {
	if c.counts[name] >= c.opts.MinCanonCount {
		return name, false
	}
	maxDist := c.opts.MaxEditDistance
	if d := len(name) / 4; d < maxDist {
		maxDist = d
	}
	if maxDist == 0 {
		return name, false
	}
	minCanon := c.counts[name] * c.opts.MinCountRatio
	if minCanon < c.opts.MinCanonCount {
		minCanon = c.opts.MinCanonCount
	}
	best, bestDist, bestCount := "", maxDist+1, 0
	for _, e := range c.canon[prefixKey(name)] {
		if e.count < minCanon {
			break // entries run from most to least frequent
		}
		if abs(len(e.name)-len(name)) > maxDist {
			continue
		}
		if maxDist == 1 {
			// name is not canonical, so no entry is 0 edits away, and
			// the first entry 1 edit away is the most frequent one.
			if oneEdit(name, e.name) {
				return e.name, true
			}
			continue
		}
		d := c.rows.distance(name, e.name)
		if d < bestDist || (d == bestDist && e.count > bestCount) {
			best, bestDist, bestCount = e.name, d, e.count
		}
	}
	if best != "" && bestDist <= maxDist {
		return best, true
	}
	return name, false
}

// oneEdit reports whether EditDistance(a, b) <= 1 — a and b are at
// most one insertion, deletion, substitution or adjacent transposition
// apart — in linear time.
func oneEdit(a, b string) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b)-len(a) > 1 {
		return false
	}
	i := 0
	for i < len(a) && a[i] == b[i] {
		i++
	}
	switch {
	case len(a) != len(b):
		return a[i:] == b[i+1:]
	case i == len(a):
		return true
	}
	return a[i+1:] == b[i+1:] ||
		i+1 < len(a) && a[i] == b[i+1] && a[i+1] == b[i] && a[i+2:] == b[i+2:]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Clean runs the full cleaning pipeline over reports and returns the
// cleaned reports plus statistics. Reports left without at least one
// drug and one reaction are dropped: they cannot contribute to any
// drug→ADR association. Normalization, correction and within-report
// dedup run on a pool of GOMAXPROCS workers (package par); the output
// does not depend on the worker count.
func Clean(reports []faers.Report, opts Options) ([]faers.Report, Stats) {
	return CleanSelected(reports, opts, Selection{})
}

// Selection picks the raw reports cleaning takes in and the drugs it
// takes of each. Cleaning applies it while its first pass reads the
// reports, so no selected copy of them is made beforehand.
type Selection struct {
	// ExpeditedOnly takes only expedited reports (faers.FilterExpedited).
	ExpeditedOnly bool
	// SuspectOnly takes each report's suspect drugs
	// (faers.Report.SuspectDrugs) and none of its drug roles.
	SuspectOnly bool
}

// CleanSelected is Clean over the reports sel picks, each narrowed as
// sel says. Stats.ReportsIn counts the picked reports.
func CleanSelected(reports []faers.Report, opts Options, sel Selection) ([]faers.Report, Stats) {
	return cleanSelected(reports, opts, sel, runtime.GOMAXPROCS(0))
}

// clean is Clean on at most workers goroutines.
func clean(reports []faers.Report, opts Options, workers int) ([]faers.Report, Stats) {
	return cleanSelected(reports, opts, Selection{}, workers)
}

// cleanSelected is CleanSelected on at most workers goroutines: the
// reports of cleanIDs, named. Each keeps its raw fields (with no drug
// roles under SuspectOnly), and its name lists are carved, capacity
// capped, from one backing array.
func cleanSelected(reports []faers.Report, opts Options, sel Selection, workers int) ([]faers.Report, Stats) {
	c, st := cleanIDs(reports, opts, sel, workers)
	out := make([]faers.Report, len(c.Kept))
	names := make([]string, c.Items)
	for k, src := range c.Kept {
		r := reports[src]
		if sel.SuspectOnly {
			r.DrugRoles = nil
		}
		r.Drugs, names = nameRanks(names, c.Drugs, c.DrugRanks(k))
		r.Reactions, names = nameRanks(names, c.Reactions, c.ReactionRanks(k))
		out[k] = r
	}
	return out, st
}

// nameRanks writes the names of ranks to the front of buf and returns
// them with the rest of buf.
func nameRanks(buf, names []string, ranks []int32) (named, rest []string) {
	named, rest = buf[:len(ranks):len(ranks)], buf[len(ranks):]
	for j, r := range ranks {
		named[j] = names[r]
	}
	return named, rest
}

// Cleaned is what cleaning keeps, in name-rank space: each domain's
// cleaned names once, sorted, and every kept report as the ranks of
// its names in that order. A report's ranks ascend, so they list its
// names sorted, each once, as Clean does.
type Cleaned struct {
	// Drugs and Reactions are the cleaned names of each domain in
	// sorted order; a name's rank is its index. They include names
	// only dropped reports carry.
	Drugs, Reactions []string
	// Kept holds the input index of every kept report, in input order.
	Kept []int32
	// Items is the number of names the kept reports carry in all.
	Items int

	ranks []int32 // spans index it
	spans []span  // one per kept report
}

// span is where one report's ranks lie in Cleaned.ranks: its drugs at
// [lo, mid), its reactions at [mid, hi).
type span struct{ lo, mid, hi int32 }

// DrugRanks returns the drug ranks of kept report k, ascending.
func (c *Cleaned) DrugRanks(k int) []int32 {
	s := c.spans[k]
	return c.ranks[s.lo:s.mid:s.mid]
}

// ReactionRanks returns the reaction ranks of kept report k, ascending.
func (c *Cleaned) ReactionRanks(k int) []int32 {
	s := c.spans[k]
	return c.ranks[s.mid:s.hi:s.hi]
}

// CleanIDs is CleanSelected in name-rank space: the same reports kept,
// with the same names and statistics, given by rank.
func CleanIDs(reports []faers.Report, opts Options, sel Selection) (*Cleaned, Stats) {
	return cleanIDs(reports, opts, sel, runtime.GOMAXPROCS(0))
}

// cleanIDs is CleanIDs on at most workers goroutines.
func cleanIDs(reports []faers.Report, opts Options, sel Selection, workers int) (*Cleaned, Stats) {
	opts = opts.normalized()
	// Each picked report's span starts a region of ranks with room for
	// all of its raw names.
	in := input{reports: reports, suspect: sel.SuspectOnly,
		picked: make([]int32, 0, len(reports)), spans: make([]span, 0, len(reports))}
	size := int32(0)
	for i := range reports {
		if r := &reports[i]; !sel.ExpeditedOnly || r.Expedited() {
			in.picked = append(in.picked, int32(i))
			in.spans = append(in.spans, span{lo: size})
			size += int32(len(r.Drugs) + len(r.Reactions))
		}
	}
	in.ranks = make([]int32, size)
	picked := in.picked

	// Pass 1: select, normalize and count name frequencies, in runs of
	// reports. Names repeat across reports, so each worker normalizes
	// and counts per distinct raw string, and records each occurrence
	// as the index of its entry in the worker's tally; the counts are
	// merged by summing.
	tallies := make([]*tally, par.Workers(len(picked), workers))
	par.DoRuns(len(picked), workers, func(w, lo, hi int) {
		if tallies[w] == nil {
			tallies[w] = newTally()
		}
		tallies[w].normalize(&in, lo, hi)
	})
	drugCounts, reacCounts := mergeCounts(tallies)

	// Pass 2: spelling correction against the observed vocabulary,
	// once per distinct name, and each domain's surviving names sorted
	// once.
	var drugFixes, reacFixes map[string]string
	if opts.SpellCorrect {
		drugFixes = corrections(drugCounts, opts, workers)
		reacFixes = corrections(reacCounts, opts, workers)
	}
	drugs, reacs := vocabularyOf(drugCounts, drugFixes), vocabularyOf(reacCounts, reacFixes)

	// Pass 3: entries to ranks, then within-report dedup, each worker
	// over the runs its tally recorded. The stats count fixes per
	// occurrence.
	sums := make([]Stats, len(tallies))
	par.Do(len(tallies), workers, func(_, w int) {
		if tallies[w] != nil {
			sums[w] = tallies[w].rank(&in, drugs, reacs)
		}
	})
	st := Stats{ReportsIn: len(picked)}
	for _, s := range sums {
		st.add(s)
	}

	// Cross-report duplicate drop, in input order, compacting picked
	// and spans in place. Duplicates are keyed by case ID only: the
	// same case reported through multiple channels or versions shares
	// a caseid, while distinct patients legitimately produce identical
	// drug/reaction content.
	c := &Cleaned{Drugs: drugs.names, Reactions: reacs.names, ranks: in.ranks}
	seenCase := make(map[string]bool, len(picked))
	kept, spans := picked[:0], in.spans[:0]
	for i, sp := range in.spans {
		if sp.lo == sp.mid || sp.mid == sp.hi {
			st.EmptyReports++
			continue
		}
		if caseID := reports[picked[i]].CaseID; opts.DropDuplicateReports && caseID != "" {
			if seenCase[caseID] {
				st.DuplicateReports++
				continue
			}
			seenCase[caseID] = true
		}
		kept, spans = append(kept, picked[i]), append(spans, sp)
		c.Items += int(sp.hi - sp.lo)
	}
	c.Kept, c.spans = kept, spans
	st.ReportsOut = len(kept)
	return c, st
}

// add sums the counters of o into s.
func (s *Stats) add(o Stats) {
	s.ReportsIn += o.ReportsIn
	s.ReportsOut += o.ReportsOut
	s.DuplicateReports += o.DuplicateReports
	s.EmptyReports += o.EmptyReports
	s.DrugSpellingsFixed += o.DrugSpellingsFixed
	s.ReacSpellingsFixed += o.ReacSpellingsFixed
	s.WithinReportDupDrugs += o.WithinReportDupDrugs
	s.WithinReportDupReacs += o.WithinReportDupReacs
}

// input is what the passes of cleanIDs share: the picked reports and,
// for each, the span of ranks its names fill. Each run of reports
// writes only its own spans.
type input struct {
	reports []faers.Report
	picked  []int32
	suspect bool
	ranks   []int32
	spans   []span
}

// tally is one worker's normalization pass over drug and reaction
// names, with the runs of reports it took.
type tally struct {
	drugs, reacs nameTally
	runs         [][2]int
}

func newTally() *tally {
	return &tally{
		drugs: nameTally{normalize: NormalizeDrug, index: make(map[string]int32)},
		reacs: nameTally{normalize: NormalizeReaction, index: make(map[string]int32)},
	}
}

// nameTally memoizes one domain's normalization: every distinct raw
// name it has seen has an entry with its normalized form and its
// occurrences, so an occurrence costs one map lookup.
type nameTally struct {
	normalize func(string) string
	index     map[string]int32 // raw name → entries index
	entries   []nameCount
}

type nameCount struct {
	norm string
	n    int
}

// add counts one occurrence of raw and returns its entry, or -1 if it
// normalizes to nothing.
func (t *nameTally) add(raw string) int32 {
	i, ok := t.index[raw]
	if !ok {
		i = int32(len(t.entries))
		t.entries = append(t.entries, nameCount{norm: t.normalize(raw)})
		t.index[raw] = i
	}
	t.entries[i].n++
	if t.entries[i].norm == "" {
		return -1
	}
	return i
}

// countInto adds the occurrences of each normalized name to counts,
// skipping names that normalize to nothing.
func (t *nameTally) countInto(counts map[string]int) {
	for _, e := range t.entries {
		if e.norm != "" {
			counts[e.norm] += e.n
		}
	}
}

// normalize records the picked reports [lo, hi) of in: each report's
// span lists the tally entries of its drug names, then of its reaction
// names, dropping names that normalize to nothing. With in.suspect it
// takes the report's suspect drugs only.
func (t *tally) normalize(in *input, lo, hi int) {
	t.runs = append(t.runs, [2]int{lo, hi})
	for i := lo; i < hi; i++ {
		r := &in.reports[in.picked[i]]
		drugs := r.Drugs
		if in.suspect {
			drugs = r.SuspectDrugs()
		}
		sp := &in.spans[i]
		k := sp.lo
		for _, d := range drugs {
			if e := t.drugs.add(d); e >= 0 {
				in.ranks[k], k = e, k+1
			}
		}
		sp.mid = k
		for _, a := range r.Reactions {
			if e := t.reacs.add(a); e >= 0 {
				in.ranks[k], k = e, k+1
			}
		}
		sp.hi = k
	}
}

// rank rewrites the spans of the runs t took from tally entries to
// ranks in drugs and reacs, sorted and deduplicated, and returns the
// fixes and within-report duplicates it met.
func (t *tally) rank(in *input, drugs, reacs vocabulary) Stats {
	var st Stats
	drugRank, drugFixed := drugs.ranksOf(t.drugs.entries)
	reacRank, reacFixed := reacs.ranksOf(t.reacs.entries)
	st.DrugSpellingsFixed, st.ReacSpellingsFixed = drugFixed, reacFixed
	for _, run := range t.runs {
		for i := run[0]; i < run[1]; i++ {
			sp := &in.spans[i]
			d := rankSet(in.ranks[sp.lo:sp.mid], drugRank)
			a := rankSet(in.ranks[sp.mid:sp.hi], reacRank)
			st.WithinReportDupDrugs += int(sp.mid-sp.lo) - len(d)
			st.WithinReportDupReacs += int(sp.hi-sp.mid) - len(a)
			// The reactions move down to follow the deduplicated drugs.
			sp.mid = sp.lo + int32(len(d))
			sp.hi = sp.mid + int32(copy(in.ranks[sp.mid:], a))
		}
	}
	return st
}

// rankSet maps the entries of s to ranks through rank, in place, and
// returns them sorted and deduplicated.
func rankSet(s, rank []int32) []int32 {
	for j, e := range s {
		s[j] = rank[e]
	}
	slices.Sort(s)
	return slices.Compact(s)
}

// mergeCounts sums the workers' occurrences of each normalized name.
// Workers that took no run made no tally.
func mergeCounts(tallies []*tally) (drugs, reacs map[string]int) {
	drugs, reacs = make(map[string]int), make(map[string]int)
	for _, t := range tallies {
		if t != nil {
			t.drugs.countInto(drugs)
			t.reacs.countInto(reacs)
		}
	}
	return drugs, reacs
}

// corrections runs the corrector built from counts once per distinct
// name, on at most workers goroutines with edit-distance rows of their
// own, and returns the names it changes, with their corrections.
func corrections(counts map[string]int, opts Options, workers int) map[string]string {
	c := NewCorrector(counts, opts)
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	fixed := make([]string, len(names)) // "" where the name stays
	cs := make([]*Corrector, par.Workers(len(names), workers))
	cs[0] = c
	par.DoRuns(len(names), workers, func(w, lo, hi int) {
		if cs[w] == nil {
			cs[w] = c.fork()
		}
		for i := lo; i < hi; i++ {
			if f, changed := cs[w].Correct(names[i]); changed {
				fixed[i] = f
			}
		}
	})
	fixes := make(map[string]string)
	for i, f := range fixed {
		if f != "" {
			fixes[names[i]] = f
		}
	}
	return fixes
}

// vocabulary is one domain's cleaned names, sorted, and the rank each
// normalized name cleans to.
type vocabulary struct {
	names []string
	rank  map[string]int32
	fixes map[string]string
}

// vocabularyOf ranks the names of counts that no fix changes. A fix
// always leads to such a name: the corrector snaps only to canonical
// names, which it never changes.
func vocabularyOf(counts map[string]int, fixes map[string]string) vocabulary {
	v := vocabulary{names: make([]string, 0, len(counts)), rank: make(map[string]int32, len(counts)), fixes: fixes}
	for name := range counts {
		if _, fixed := fixes[name]; !fixed {
			v.names = append(v.names, name)
		}
	}
	slices.Sort(v.names)
	for r, name := range v.names {
		v.rank[name] = int32(r)
	}
	return v
}

// ranksOf returns the rank each tally entry cleans to (0 for entries
// that normalize to nothing, which no span holds) and the occurrences
// of the entries a fix changes.
func (v vocabulary) ranksOf(entries []nameCount) (ranks []int32, fixed int) {
	ranks = make([]int32, len(entries))
	for e, nc := range entries {
		if nc.norm == "" {
			continue
		}
		name := nc.norm
		if f, ok := v.fixes[nc.norm]; ok {
			name = f
			fixed += nc.n
		}
		ranks[e] = v.rank[name]
	}
	return ranks, fixed
}
