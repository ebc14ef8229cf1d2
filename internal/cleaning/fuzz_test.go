package cleaning

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"maras/internal/faers"
)

var (
	fuzzDrugs     = []string{"ASPIRIN", "WARFARIN", "METFORMIN", "LISINOPRIL", "IBUPROFEN", "ATORVASTATIN"}
	fuzzReactions = []string{"Nausea", "Haemorrhage", "Renal failure", "Rash", "Headache", "Dizziness"}
)

// fuzzName turns one byte into a name drawn from pool: mostly the name
// itself, sometimes a form that normalizes to it (other case, dose
// suffix, stray punctuation), a near-miss spelling (one substitution or
// transposition past the two-letter prefix), or noise that normalizes
// to nothing.
func fuzzName(pool []string, b byte) string {
	base := pool[int(b)%len(pool)]
	k := int(b) / len(pool)
	switch {
	case k < 20:
		return base
	case k < 25:
		return strings.ToLower(base) + " 10MG TAB"
	case k < 28:
		return "  " + base + ".;"
	case k < 37:
		s := []byte(base)
		p := 2 + k%(len(s)-2)
		if k%2 == 0 {
			s[p] = 'Q'
		} else {
			s[p-1], s[p] = s[p], s[p-1]
		}
		return string(s)
	default:
		return []string{"", " ", "...", " ;: ", "_\t"}[k%5]
	}
}

// fuzzReports decodes data into cleaning options and up to 64 reports.
// Each report takes a header byte (case ID from a pool of seven, so
// cases recur, or none; drug and reaction counts) and then one byte
// per name.
func fuzzReports(data []byte) ([]faers.Report, Options) {
	opts := Options{
		SpellCorrect:         data[0]&1 != 0,
		DropDuplicateReports: data[0]&2 != 0,
		MinCanonCount:        1 + int(data[0]>>2)%4,
		MinCountRatio:        1 + int(data[0]>>4)%8,
		MaxEditDistance:      1 + int(data[1])%2,
	}
	data = data[2:]
	var reports []faers.Report
	for len(data) > 0 && len(reports) < 64 {
		h := data[0]
		data = data[1:]
		r := faers.Report{PrimaryID: "P" + strconv.Itoa(len(reports))}
		if c := h & 7; c != 0 {
			r.CaseID = "C" + strconv.Itoa(int(c))
		}
		nd, nr := int(h>>3)&7, int(h>>6)&3
		for i := 0; i < nd && len(data) > 0; i++ {
			r.Drugs = append(r.Drugs, fuzzName(fuzzDrugs, data[0]))
			data = data[1:]
		}
		for i := 0; i < nr && len(data) > 0; i++ {
			r.Reactions = append(r.Reactions, fuzzName(fuzzReactions, data[0]))
			data = data[1:]
		}
		reports = append(reports, r)
	}
	return reports, opts
}

func cloneReports(in []faers.Report) []faers.Report {
	out := slices.Clone(in)
	for i := range out {
		out[i].Drugs = slices.Clone(out[i].Drugs)
		out[i].Reactions = slices.Clone(out[i].Reactions)
	}
	return out
}

// sameReports is reflect.DeepEqual, except that no reports at all
// match whether the slice is nil or empty.
func sameReports(a, b []faers.Report) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// FuzzClean decodes the input into options and a small report set with
// near-miss spellings, within-report repeats, shared case IDs and names
// that normalize to nothing, and requires clean on one worker and on
// four to return the same reports and stats, both equal to the
// per-occurrence reference, with the input left untouched.
func FuzzClean(f *testing.F) {
	f.Add([]byte{0xff, 0, 0x49, 0, 0, 6, 6, 1, 0x51, 0, 0, 1, 0x49, 0, 0, 7})
	f.Add([]byte{0x07, 1, 0x52, 0, 6, 12, 18, 2, 0x52, 0, 6, 12, 18, 2, 0x52, 150, 6, 12, 18, 2})
	f.Add([]byte{0x13, 0, 0xc8, 0, 0, 0, 0, 0, 0, 7, 7, 7, 0x48, 240, 241, 3, 0x40, 5, 200})
	f.Add([]byte{0x03, 0, 0x00, 0x08, 250, 0x40, 1, 0x49, 180, 181, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		reports, opts := fuzzReports(data)
		input := cloneReports(reports)
		want, wantSt := referenceClean(input, opts)
		serial, serialSt := clean(reports, opts, 1)
		parallel, parallelSt := clean(reports, opts, 4)
		if !reflect.DeepEqual(reports, input) {
			t.Fatal("clean modified its input")
		}
		if serialSt != parallelSt || !sameReports(serial, parallel) {
			t.Fatalf("one worker: %+v %v\nfour workers: %+v %v", serialSt, serial, parallelSt, parallel)
		}
		if serialSt != wantSt || !sameReports(serial, want) {
			t.Fatalf("clean: %+v %v\nreference: %+v %v", serialSt, serial, wantSt, want)
		}
	})
}
