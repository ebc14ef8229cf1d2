package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"maras/internal/cleaning"
	"maras/internal/faers"
	"maras/internal/txdb"
	"maras/internal/types"
)

// referenceEncode is EncodeReports by the string path: every picked
// occurrence normalized and corrected on its own, each report's names
// sorted and deduplicated as strings, the empty and repeated-case
// reports dropped, then one Intern per occurrence and one Add per
// report. It reports the panic of an Intern that meets a name in both
// domains instead of a DB.
func referenceEncode(reports []faers.Report, opts Options) (db *txdb.DB, st cleaning.Stats, panicked any) {
	type named struct {
		src          int
		drugs, reacs []string
	}
	var picked []named
	drugCounts, reacCounts := map[string]int{}, map[string]int{}
	for i := range reports {
		r := &reports[i]
		if opts.ExpeditedOnly && !r.Expedited() {
			continue
		}
		drugs := r.Drugs
		if opts.SuspectOnly {
			drugs = r.SuspectDrugs()
		}
		n := named{src: i}
		for _, d := range drugs {
			if nd := cleaning.NormalizeDrug(d); nd != "" {
				n.drugs = append(n.drugs, nd)
				drugCounts[nd]++
			}
		}
		for _, a := range r.Reactions {
			if na := cleaning.NormalizeReaction(a); na != "" {
				n.reacs = append(n.reacs, na)
				reacCounts[na]++
			}
		}
		picked = append(picked, n)
	}
	st.ReportsIn = len(picked)
	if opts.Cleaning.SpellCorrect {
		dc := cleaning.NewCorrector(drugCounts, opts.Cleaning)
		rc := cleaning.NewCorrector(reacCounts, opts.Cleaning)
		for _, n := range picked {
			for j, d := range n.drugs {
				if fixed, changed := dc.Correct(d); changed {
					n.drugs[j] = fixed
					st.DrugSpellingsFixed++
				}
			}
			for j, a := range n.reacs {
				if fixed, changed := rc.Correct(a); changed {
					n.reacs[j] = fixed
					st.ReacSpellingsFixed++
				}
			}
		}
	}
	seenCase := map[string]bool{}
	var kept []named
	for _, n := range picked {
		before := len(n.drugs)
		slices.Sort(n.drugs)
		n.drugs = slices.Compact(n.drugs)
		st.WithinReportDupDrugs += before - len(n.drugs)
		before = len(n.reacs)
		slices.Sort(n.reacs)
		n.reacs = slices.Compact(n.reacs)
		st.WithinReportDupReacs += before - len(n.reacs)
		if len(n.drugs) == 0 || len(n.reacs) == 0 {
			st.EmptyReports++
			continue
		}
		if caseID := reports[n.src].CaseID; opts.Cleaning.DropDuplicateReports && caseID != "" {
			if seenCase[caseID] {
				st.DuplicateReports++
				continue
			}
			seenCase[caseID] = true
		}
		kept = append(kept, n)
	}
	st.ReportsOut = len(kept)

	defer func() { panicked = recover() }()
	dict := types.NewDictionary()
	db = txdb.New(dict)
	for _, n := range kept {
		var items types.Itemset
		for _, d := range n.drugs {
			items = append(items, dict.Intern(d, types.DomainDrug))
		}
		for _, a := range n.reacs {
			items = append(items, dict.Intern(a, types.DomainReaction))
		}
		db.Add(reports[n.src].PrimaryID, items)
	}
	db.Freeze()
	return db, st, nil
}

// checkEncode holds EncodeReports, at GOMAXPROCS 1 and 4, to
// referenceEncode: the same stats, and the same dictionary (names and
// domains in ID order), transactions (report IDs and items) and
// postings. It fails unless EncodeReports errs exactly where the
// reference panics, naming the name in both domains, or where the
// reference keeps no report. It returns whether the reference
// panicked.
func checkEncode(t *testing.T, label string, reports []faers.Report, opts Options) bool {
	t.Helper()
	want, wantSt, panicked := referenceEncode(reports, opts)
	for _, procs := range []int{1, 4} {
		where := fmt.Sprintf("%s (GOMAXPROCS=%d)", label, procs)
		prev := runtime.GOMAXPROCS(procs)
		got, gotSt, err := EncodeReports(reports, opts)
		runtime.GOMAXPROCS(prev)
		if gotSt != wantSt {
			t.Fatalf("%s: stats %+v, reference %+v", where, gotSt, wantSt)
		}
		switch {
		case panicked != nil:
			name := strings.SplitN(fmt.Sprint(panicked), `"`, 3)[1]
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", name)) {
				t.Fatalf("%s: reference panicked (%v), EncodeReports returned %v", where, panicked, err)
			}
			continue
		case wantSt.ReportsOut == 0:
			if err == nil {
				t.Fatalf("%s: reference kept no report, EncodeReports no error", where)
			}
			continue
		case err != nil:
			t.Fatalf("%s: %v", where, err)
		}
		if err := sameDB(got, want); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
	}
	return panicked != nil
}

// sameDB reports how got differs from want: dictionary, transactions
// or postings.
func sameDB(got, want *txdb.DB) error {
	gd, wd := got.Dict(), want.Dict()
	if gd.Len() != wd.Len() {
		return fmt.Errorf("%d dictionary items, reference %d", gd.Len(), wd.Len())
	}
	for it := range types.Item(wd.Len()) {
		if gd.Name(it) != wd.Name(it) || gd.Domain(it) != wd.Domain(it) {
			return fmt.Errorf("item %d is %q (%v), reference %q (%v)", it, gd.Name(it), gd.Domain(it), wd.Name(it), wd.Domain(it))
		}
		if !slices.Equal(got.Postings(it), want.Postings(it)) {
			return fmt.Errorf("item %d postings %v, reference %v", it, got.Postings(it), want.Postings(it))
		}
	}
	if got.Len() != want.Len() {
		return fmt.Errorf("%d transactions, reference %d", got.Len(), want.Len())
	}
	for tid := range txdb.TID(want.Len()) {
		g, w := got.Tx(tid), want.Tx(tid)
		if g.ReportID != w.ReportID || !g.Items.Equal(w.Items) {
			return fmt.Errorf("transaction %d is %s %v, reference %s %v", tid, g.ReportID, g.Items, w.ReportID, w.Items)
		}
	}
	return nil
}

var (
	encodeDrugs = []string{"ASPIRIN", "WARFARIN", "METFORMIN", "LISINOPRIL", "IBUPROFEN",
		"ATORVASTATIN", "OMEPRAZOLE", "DIGOXIN", "PREDNISONE", "AMLODIPINE"}
	encodeReactions = []string{"Nausea", "Haemorrhage", "Renal failure", "Rash", "Headache",
		"Dizziness", "Fatigue", "Vomiting"}
	// encodeRoles are drug role codes: suspect (PS, SS, I) and
	// concomitant (C).
	encodeRoles = []string{"PS", "SS", "C", "I", "C"}
)

// noisyName turns k into a name drawn from pool: mostly the name
// itself, otherwise a form cleaning normalizes to it (other case,
// stray whitespace and punctuation, a dose suffix), one of two fixed
// one-edit misspellings past the two-letter prefix (so each recurs),
// noise that normalizes to nothing, or, rarely, "100", a name both
// domains clean to.
func noisyName(pool []string, k int) string {
	base := pool[k%len(pool)]
	switch v := k / len(pool) % 400; {
	case v < 260:
		return base
	case v < 290:
		return strings.ToLower(base)
	case v < 310:
		return "  " + strings.Replace(base, " ", " \t ", 1) + " .;"
	case v < 330:
		return base + " 10MG TAB"
	case v < 360:
		s := []byte(base)
		p := len(s) / 2
		if v%2 == 0 {
			s[p] = 'Q'
		} else {
			s[p-1], s[p] = s[p], s[p-1]
		}
		return string(s)
	case v < 399:
		return []string{"", " ", "...", " ;: ", "_\t"}[v%5]
	default:
		return "100"
	}
}

// corpusReport builds report i from draws in [0, n): a case ID from a
// pool of cases (so cases recur) or none, expedited or not, drug
// roles on some reports, and up to four drugs and three reactions.
func corpusReport(i int, draw func(n int) int) faers.Report {
	r := faers.Report{PrimaryID: fmt.Sprint(1000 + i), ReportCode: "EXP"}
	if c := draw(300); c < 250 {
		r.CaseID = fmt.Sprint("C", c)
	}
	if draw(4) == 0 {
		r.ReportCode = "PER"
	}
	nd, nr := draw(5), draw(4)
	roles := draw(2) == 0
	for range nd {
		r.Drugs = append(r.Drugs, noisyName(encodeDrugs, draw(1<<16)))
		if roles {
			r.DrugRoles = append(r.DrugRoles, encodeRoles[draw(len(encodeRoles))])
		}
	}
	for range nr {
		r.Reactions = append(r.Reactions, noisyName(encodeReactions, draw(1<<16)))
	}
	return r
}

// corpusOptions decodes b into run options: all four Selections, spell
// correction and case-ID dropping on or off.
func corpusOptions(b byte) Options {
	opts := NewOptions()
	opts.ExpeditedOnly = b&1 != 0
	opts.SuspectOnly = b&2 != 0
	opts.Cleaning.SpellCorrect = b&4 == 0
	opts.Cleaning.DropDuplicateReports = b&8 == 0
	return opts
}

// EncodeReports must return what interning every occurrence of the
// string-cleaned reports does, on seeded random corpora with case,
// whitespace and dose noise, one-edit misspellings, repeated case IDs,
// reports that clean to empty, suspect roles and every Selection, and
// err exactly where that panics on a name in both domains.
func TestEncodeReportsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var collisions, fixes, dups, empties, repeats int
	for trial := range 48 {
		n := 40 + rng.Intn(360)
		reports := make([]faers.Report, n)
		for i := range reports {
			reports[i] = corpusReport(i, rng.Intn)
		}
		opts := corpusOptions(byte(trial))
		if checkEncode(t, fmt.Sprint("trial ", trial), reports, opts) {
			collisions++
			continue
		}
		_, st, _ := referenceEncode(reports, opts)
		fixes += st.DrugSpellingsFixed + st.ReacSpellingsFixed
		dups += st.WithinReportDupDrugs + st.WithinReportDupReacs
		empties += st.EmptyReports
		repeats += st.DuplicateReports
	}
	if collisions == 0 || collisions == 48 || fixes == 0 || dups == 0 || empties == 0 || repeats == 0 {
		t.Fatalf("fixture: %d collisions in 48 trials, %d fixes, %d within-report duplicates, %d empty and %d repeated-case reports",
			collisions, fixes, dups, empties, repeats)
	}
}

// A name that cleans to a drug in one report and to a reaction in
// another is an error of EncodeReports and Run that names it, not a
// panic.
func TestRunErrsOnNameInBothDomains(t *testing.T) {
	reports := []faers.Report{
		{PrimaryID: "1", CaseID: "C1", ReportCode: "EXP", Drugs: []string{"100", "ASPIRIN"}, Reactions: []string{"Rash"}},
		{PrimaryID: "2", CaseID: "C2", ReportCode: "EXP", Drugs: []string{"WARFARIN"}, Reactions: []string{"100"}},
	}
	if _, _, err := EncodeReports(reports, NewOptions()); err == nil || !strings.Contains(err.Error(), `"100"`) {
		t.Fatalf("EncodeReports: %v, want an error naming \"100\"", err)
	}
	if _, err := Run(reports, NewOptions()); err == nil || !strings.Contains(err.Error(), `"100"`) {
		t.Fatalf("Run: %v, want an error naming \"100\"", err)
	}
}

// FuzzEncodeReports decodes the input into run options (first byte, as
// corpusOptions) and up to 64 reports drawn from the bytes that
// follow, and holds EncodeReports to referenceEncode.
func FuzzEncodeReports(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	f.Add([]byte{3, 7, 3, 1, 1, 0, 0, 0, 9, 7, 3, 1, 1, 0, 1, 0, 9, 0, 3, 2, 0, 5})
	f.Add([]byte{12, 200, 17, 4, 3, 1, 38, 0, 91, 0, 200, 17, 4, 3, 1, 38, 2, 91, 2})
	f.Add([]byte{5, 1, 0, 4, 3, 1, 0xff, 0xf0, 3, 0x42, 1, 1, 0, 2, 3, 0xff, 0xf0, 3, 0x42})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		opts := corpusOptions(data[0])
		data = data[1:]
		draw := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			if n > 256 && len(data) > 1 {
				v, data = v<<8|int(data[1]), data[1:]
			}
			data = data[1:]
			return v % n
		}
		var reports []faers.Report
		for len(data) > 0 && len(reports) < 64 {
			reports = append(reports, corpusReport(len(reports), draw))
		}
		checkEncode(t, "fuzz", reports, opts)
	})
}
