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
	"sort"
	"strings"

	"maras/internal/faers"
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
// concurrent use.
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

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Clean runs the full cleaning pipeline over reports and returns the
// cleaned reports plus statistics. Reports left without at least one
// drug and one reaction are dropped: they cannot contribute to any
// drug→ADR association.
func Clean(reports []faers.Report, opts Options) ([]faers.Report, Stats) {
	opts = opts.normalized()
	var st Stats
	st.ReportsIn = len(reports)

	// Pass 1: normalize strings, count name frequencies. Names repeat
	// across reports, so each distinct raw string is normalized once.
	normDrug := memoize(NormalizeDrug)
	normReac := memoize(NormalizeReaction)
	norm := make([]faers.Report, len(reports))
	drugCounts := make(map[string]int)
	reacCounts := make(map[string]int)
	for i, r := range reports {
		n := r
		n.Drugs = make([]string, 0, len(r.Drugs))
		n.Reactions = make([]string, 0, len(r.Reactions))
		for _, d := range r.Drugs {
			if nd := normDrug(d); nd != "" {
				n.Drugs = append(n.Drugs, nd)
				drugCounts[nd]++
			}
		}
		for _, a := range r.Reactions {
			if na := normReac(a); na != "" {
				n.Reactions = append(n.Reactions, na)
				reacCounts[na]++
			}
		}
		norm[i] = n
	}

	// Pass 2: spelling correction against the observed vocabulary,
	// once per distinct name; the stats still count occurrences.
	if opts.SpellCorrect {
		drugFixes := corrections(drugCounts, opts)
		reacFixes := corrections(reacCounts, opts)
		for i := range norm {
			for j, d := range norm[i].Drugs {
				if fixed, ok := drugFixes[d]; ok {
					norm[i].Drugs[j] = fixed
					st.DrugSpellingsFixed++
				}
			}
			for j, a := range norm[i].Reactions {
				if fixed, ok := reacFixes[a]; ok {
					norm[i].Reactions[j] = fixed
					st.ReacSpellingsFixed++
				}
			}
		}
	}

	// Pass 3: within-report dedup + cross-report duplicate drop.
	// Cross-report duplicates are keyed by case ID only: the same
	// case reported through multiple channels or versions shares a
	// caseid, while distinct patients legitimately produce identical
	// drug/reaction content.
	seenCase := make(map[string]bool)
	out := make([]faers.Report, 0, len(norm))
	for _, r := range norm {
		before := len(r.Drugs)
		r.Drugs = dedupSorted(r.Drugs)
		st.WithinReportDupDrugs += before - len(r.Drugs)
		before = len(r.Reactions)
		r.Reactions = dedupSorted(r.Reactions)
		st.WithinReportDupReacs += before - len(r.Reactions)

		if len(r.Drugs) == 0 || len(r.Reactions) == 0 {
			st.EmptyReports++
			continue
		}
		if opts.DropDuplicateReports && r.CaseID != "" {
			if seenCase[r.CaseID] {
				st.DuplicateReports++
				continue
			}
			seenCase[r.CaseID] = true
		}
		out = append(out, r)
	}
	st.ReportsOut = len(out)
	return out, st
}

// memoize caches f's result per distinct argument.
func memoize(f func(string) string) func(string) string {
	seen := make(map[string]string)
	return func(s string) string {
		v, ok := seen[s]
		if !ok {
			v = f(s)
			seen[s] = v
		}
		return v
	}
}

// corrections runs the corrector built from counts once per distinct
// name and returns the names it changes, with their corrections.
func corrections(counts map[string]int, opts Options) map[string]string {
	c := NewCorrector(counts, opts)
	fixes := make(map[string]string)
	for name := range counts {
		if fixed, changed := c.Correct(name); changed {
			fixes[name] = fixed
		}
	}
	return fixes
}

// dedupSorted sorts and deduplicates a string slice in place.
func dedupSorted(s []string) []string {
	if len(s) < 2 {
		return s
	}
	sort.Strings(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
