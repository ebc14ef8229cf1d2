package cleaning

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"maras/internal/faers"
	"maras/internal/synth"
)

func TestNormalizeDrug(t *testing.T) {
	cases := map[string]string{
		"aspirin":               "ASPIRIN",
		"  Aspirin  ":           "ASPIRIN",
		"ASPIRIN 81MG TAB":      "ASPIRIN",
		"ASPIRIN 81 MG TABLETS": "ASPIRIN",
		"warfarin sodium":       "WARFARIN SODIUM",
		"Tylenol.":              "TYLENOL",
		"XOLAIR  150MG":         "XOLAIR",
		"b12 100":               "B12",
		"":                      "",
		"   ":                   "",
		"ZOMETA 4MG/5ML INJ":    "ZOMETA",
	}
	for in, want := range cases {
		if got := NormalizeDrug(in); got != want {
			t.Errorf("NormalizeDrug(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeReaction(t *testing.T) {
	cases := map[string]string{
		"acute RENAL failure":  "Acute renal failure",
		"  nausea ":            "Nausea",
		"OSTEONECROSIS OF JAW": "Osteonecrosis of jaw",
		"rash.":                "Rash",
		"":                     "",
	}
	for in, want := range cases {
		if got := NormalizeReaction(in); got != want {
			t.Errorf("NormalizeReaction(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"ASPIRIN", "ASPIRIN", 0},
		{"ASPIRIN", "ASPRIN", 1},  // deletion
		{"ASPIRIN", "ASPIRNI", 1}, // transposition (Damerau)
		{"WARFARIN", "WARFRIN", 1},
		{"abc", "cba", 2},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceSymmetric(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		return EditDistance(a, b) == EditDistance(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// oneEdit must agree with EditDistance(a, b) <= 1 on every pair of
// strings of up to four letters over a three-letter alphabet.
func TestOneEditMatchesEditDistance(t *testing.T) {
	words := []string{""}
	for n := 0; n < len(words) && len(words[n]) < 4; n++ {
		for _, c := range "abc" {
			words = append(words, words[n]+string(c))
		}
	}
	for _, a := range words {
		for _, b := range words {
			if got, want := oneEdit(a, b), EditDistance(a, b) <= 1; got != want {
				t.Fatalf("oneEdit(%q, %q) = %v, EditDistance %d", a, b, got, EditDistance(a, b))
			}
		}
	}
}

func TestEditDistanceTriangleIneq(t *testing.T) {
	f := func(a, b, c string) bool {
		trim := func(s string) string {
			if len(s) > 15 {
				return s[:15]
			}
			return s
		}
		a, b, c = trim(a), trim(b), trim(c)
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCorrectorSnapsRareToCanonical(t *testing.T) {
	counts := map[string]int{
		"ASPIRIN":  100,
		"ASPRIN":   1, // misspelling
		"WARFARIN": 50,
	}
	c := NewCorrector(counts, Defaults())
	if got, changed := c.Correct("ASPRIN"); !changed || got != "ASPIRIN" {
		t.Errorf("Correct(ASPRIN) = %q,%v, want ASPIRIN,true", got, changed)
	}
	// Canonical names stay put.
	if got, changed := c.Correct("ASPIRIN"); changed || got != "ASPIRIN" {
		t.Errorf("Correct(ASPIRIN) = %q,%v", got, changed)
	}
	// A rare name with no close canonical neighbor stays put.
	if got, changed := c.Correct("XYZZYDRUG"); changed || got != "XYZZYDRUG" {
		t.Errorf("Correct(XYZZYDRUG) = %q,%v", got, changed)
	}
}

func TestCorrectorShortNamesConservative(t *testing.T) {
	counts := map[string]int{"ABC": 100, "ABD": 1}
	c := NewCorrector(counts, Defaults())
	// len/4 = 0 for 3-char names: never snap, too risky.
	if got, changed := c.Correct("ABD"); changed {
		t.Errorf("short name snapped: %q", got)
	}
}

func TestCorrectorPrefersFrequent(t *testing.T) {
	counts := map[string]int{
		"METAMIZOLE": 80,
		"METAMIZOLC": 40, // also canonical, same distance from the typo
		"METAMIZOLX": 1,
	}
	opts := Defaults()
	opts.MinCanonCount = 10
	c := NewCorrector(counts, opts)
	got, changed := c.Correct("METAMIZOLX")
	if !changed || got != "METAMIZOLE" {
		t.Errorf("Correct = %q,%v, want most-frequent METAMIZOLE", got, changed)
	}
}

func report(id, caseID string, drugs, reacs []string) faers.Report {
	return faers.Report{PrimaryID: id, CaseID: caseID, Drugs: drugs, Reactions: reacs}
}

func TestCleanNormalizesAndDedups(t *testing.T) {
	in := []faers.Report{
		report("1", "c1", []string{"aspirin 81mg tab", "ASPIRIN", "warfarin"}, []string{"NAUSEA", "nausea", "rash"}),
	}
	out, st := Clean(in, Defaults())
	if len(out) != 1 {
		t.Fatalf("reports out = %d", len(out))
	}
	if !reflect.DeepEqual(out[0].Drugs, []string{"ASPIRIN", "WARFARIN"}) {
		t.Errorf("drugs = %v", out[0].Drugs)
	}
	if !reflect.DeepEqual(out[0].Reactions, []string{"Nausea", "Rash"}) {
		t.Errorf("reactions = %v", out[0].Reactions)
	}
	if st.WithinReportDupDrugs != 1 || st.WithinReportDupReacs != 1 {
		t.Errorf("dup stats = %+v", st)
	}
}

func TestCleanDropsEmptyReports(t *testing.T) {
	in := []faers.Report{
		report("1", "c1", []string{"ASPIRIN"}, nil),
		report("2", "c2", nil, []string{"Rash"}),
		report("3", "c3", []string{"ASPIRIN"}, []string{"Rash"}),
	}
	out, st := Clean(in, Defaults())
	if len(out) != 1 || out[0].PrimaryID != "3" {
		t.Fatalf("out = %+v", out)
	}
	if st.EmptyReports != 2 {
		t.Errorf("EmptyReports = %d", st.EmptyReports)
	}
}

func TestCleanDropsDuplicateCases(t *testing.T) {
	in := []faers.Report{
		report("1", "caseA", []string{"X"}, []string{"R"}),
		report("2", "caseA", []string{"X", "Y"}, []string{"R"}), // same case, later version
		report("3", "caseB", []string{"X"}, []string{"R"}),      // same content, distinct case: kept
	}
	out, st := Clean(in, Defaults())
	if len(out) != 2 {
		t.Fatalf("out = %d reports, want 2", len(out))
	}
	if st.DuplicateReports != 1 {
		t.Errorf("DuplicateReports = %d, want 1", st.DuplicateReports)
	}
}

func TestCleanSpellCorrection(t *testing.T) {
	var in []faers.Report
	for i := 0; i < 10; i++ {
		in = append(in, report(string(rune('a'+i)), "", []string{"IBUPROFEN"}, []string{"Acute renal failure"}))
	}
	in = append(in, report("typo", "", []string{"IBUPROFEN", "IBUPROFEM"}, []string{"Acute renal failure"}))
	opts := Defaults()
	opts.DropDuplicateReports = false
	out, st := Clean(in, opts)
	if st.DrugSpellingsFixed != 1 {
		t.Fatalf("DrugSpellingsFixed = %d, want 1", st.DrugSpellingsFixed)
	}
	last := out[len(out)-1]
	if !reflect.DeepEqual(last.Drugs, []string{"IBUPROFEN"}) {
		t.Errorf("typo report drugs = %v (should snap+dedup to IBUPROFEN)", last.Drugs)
	}
}

func TestCleanStatsConsistency(t *testing.T) {
	in := []faers.Report{
		report("1", "c1", []string{"A"}, []string{"r"}),
		report("2", "c1", []string{"A"}, []string{"r"}),
		report("3", "", nil, nil),
	}
	out, st := Clean(in, Defaults())
	if st.ReportsIn != 3 || st.ReportsOut != len(out) {
		t.Errorf("stats in/out inconsistent: %+v vs %d", st, len(out))
	}
	if st.ReportsOut+st.DuplicateReports+st.EmptyReports != st.ReportsIn {
		t.Errorf("stats don't add up: %+v", st)
	}
}

func TestCleanNoSpellCorrectOption(t *testing.T) {
	var in []faers.Report
	for i := 0; i < 10; i++ {
		in = append(in, report(string(rune('a'+i)), "", []string{"IBUPROFEN"}, []string{"Rash"}))
	}
	in = append(in, report("typo", "", []string{"IBUPROFEM"}, []string{"Rash"}))
	opts := Defaults()
	opts.SpellCorrect = false
	opts.DropDuplicateReports = false
	out, st := Clean(in, opts)
	if st.DrugSpellingsFixed != 0 {
		t.Errorf("spell correction ran when disabled")
	}
	if !reflect.DeepEqual(out[len(out)-1].Drugs, []string{"IBUPROFEM"}) {
		t.Errorf("typo was altered: %v", out[len(out)-1].Drugs)
	}
}

// referenceClean is Clean without its per-name memos: every
// occurrence is normalized and corrected on its own.
func referenceClean(reports []faers.Report, opts Options) ([]faers.Report, Stats) {
	opts = opts.normalized()
	st := Stats{ReportsIn: len(reports)}
	norm := make([]faers.Report, len(reports))
	drugCounts := make(map[string]int)
	reacCounts := make(map[string]int)
	for i, r := range reports {
		n := r
		n.Drugs, n.Reactions = nil, nil
		for _, d := range r.Drugs {
			if nd := NormalizeDrug(d); nd != "" {
				n.Drugs = append(n.Drugs, nd)
				drugCounts[nd]++
			}
		}
		for _, a := range r.Reactions {
			if na := NormalizeReaction(a); na != "" {
				n.Reactions = append(n.Reactions, na)
				reacCounts[na]++
			}
		}
		norm[i] = n
	}
	if opts.SpellCorrect {
		dc := NewCorrector(drugCounts, opts)
		rc := NewCorrector(reacCounts, opts)
		for i := range norm {
			for j, d := range norm[i].Drugs {
				if fixed, changed := dc.Correct(d); changed {
					norm[i].Drugs[j] = fixed
					st.DrugSpellingsFixed++
				}
			}
			for j, a := range norm[i].Reactions {
				if fixed, changed := rc.Correct(a); changed {
					norm[i].Reactions[j] = fixed
					st.ReacSpellingsFixed++
				}
			}
		}
	}
	seenCase := make(map[string]bool)
	var out []faers.Report
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

// dedupSorted sorts and deduplicates a string slice in place.
func dedupSorted(s []string) []string {
	slices.Sort(s)
	return slices.Compact(s)
}

// Memoizing per distinct name must not change what Clean returns or
// what its stats count, on a quarter with injected misspellings.
func TestCleanMatchesPerOccurrenceReference(t *testing.T) {
	cfg := synth.DefaultConfig("2014Q1", 11)
	cfg.Reports = 4000
	cfg.MisspellRate = 0.05
	q, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports := q.Reports()
	got, gotSt := Clean(reports, Defaults())
	want, wantSt := referenceClean(reports, Defaults())
	if gotSt != wantSt {
		t.Fatalf("stats = %+v, reference %+v", gotSt, wantSt)
	}
	if gotSt.DrugSpellingsFixed == 0 {
		t.Fatal("fixture fixed no misspelling")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("cleaned reports differ from the per-occurrence reference")
	}
}

// Applying a Selection inside cleaning's first pass must return what
// cleaning a selected copy did: the expedited reports filtered out
// first, then each narrowed to its suspect drugs with no roles. Stats
// count the selected reports in. One and four workers, input untouched.
func TestCleanSelectedMatchesSelectedCopy(t *testing.T) {
	cfg := synth.DefaultConfig("2014Q1", 29)
	cfg.Reports = 3000
	q, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports := q.Reports()
	input := cloneReports(reports)
	expedited := faers.FilterExpedited(reports)
	if len(expedited) == len(reports) || len(expedited) == 0 {
		t.Fatalf("fixture: %d of %d reports expedited, want some but not all", len(expedited), len(reports))
	}
	narrowed := 0
	for _, sel := range []Selection{{}, {ExpeditedOnly: true}, {SuspectOnly: true}, {ExpeditedOnly: true, SuspectOnly: true}} {
		in := reports
		if sel.ExpeditedOnly {
			in = expedited
		}
		if sel.SuspectOnly {
			in = slices.Clone(in)
			for i := range in {
				if d := in[i].SuspectDrugs(); len(d) < len(in[i].Drugs) {
					narrowed++
				}
				in[i].Drugs, in[i].DrugRoles = in[i].SuspectDrugs(), nil
			}
		}
		want, wantSt := clean(in, Defaults(), 1)
		if wantSt.ReportsIn != len(in) {
			t.Fatalf("%+v: ReportsIn = %d, want %d", sel, wantSt.ReportsIn, len(in))
		}
		for _, workers := range []int{1, 4} {
			got, gotSt := cleanSelected(reports, Defaults(), sel, workers)
			if gotSt != wantSt || !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v, %d workers: stats %+v, cleaning a selected copy %+v (or the reports differ)",
					sel, workers, gotSt, wantSt)
			}
		}
	}
	if narrowed == 0 {
		t.Fatal("fixture: no report has a drug that is not suspect")
	}
	if !reflect.DeepEqual(reports, input) {
		t.Fatal("cleaning modified its input")
	}
}
