package faers

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

const demoSample = `primaryid$caseid$event_dt$rept_cod$age$age_cod$sex$occr_country
1001$C1$20140105$EXP$54$YR$F$US
1002$C2$20140210$PER$77$YR$M$MX
1003$C3$$EXP$$$UNK$
`

const drugSample = `primaryid$drug_seq$role_cod$drugname
1001$1$PS$ASPIRIN
1001$2$SS$WARFARIN
1002$1$PS$IBUPROFEN
1003$2$C$NEXIUM
1003$1$PS$PREVACID
`

const reacSample = `primaryid$pt
1001$Haemorrhage
1001$Nausea
1002$Acute renal failure
1003$Osteoporosis
`

const outcSample = `primaryid$outc_cod
1001$HO
1002$DE
`

func TestReadDemo(t *testing.T) {
	ds, err := ReadDemo(strings.NewReader(demoSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 {
		t.Fatalf("parsed %d rows, want 3", len(ds))
	}
	want := Demo{PrimaryID: "1001", CaseID: "C1", EventDate: "20140105",
		ReportCode: "EXP", Age: "54", AgeCode: "YR", Sex: "F", Country: "US"}
	if ds[0] != want {
		t.Errorf("row 0 = %+v, want %+v", ds[0], want)
	}
	if ds[2].Age != "" || ds[2].Country != "" {
		t.Errorf("empty fields not preserved: %+v", ds[2])
	}
}

func TestReadDrugOrdering(t *testing.T) {
	ds, err := ReadDrug(strings.NewReader(drugSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 5 {
		t.Fatalf("parsed %d rows", len(ds))
	}
	if ds[0].Name != "ASPIRIN" || ds[0].Seq != 1 || ds[0].RoleCode != "PS" {
		t.Errorf("row 0 = %+v", ds[0])
	}
}

func TestReadDrugBadSeq(t *testing.T) {
	_, err := ReadDrug(strings.NewReader("primaryid$drug_seq$role_cod$drugname\n1$x$PS$A\n"))
	if err == nil {
		t.Error("expected error for non-numeric drug_seq")
	}
}

func TestReadMissingColumn(t *testing.T) {
	_, err := ReadReac(strings.NewReader("primaryid$term\n1$foo\n"))
	if err == nil || !strings.Contains(err.Error(), "pt") {
		t.Errorf("expected missing-column error, got %v", err)
	}
}

func TestReadEmptyTable(t *testing.T) {
	_, err := ReadDemo(strings.NewReader(""))
	if err == nil {
		t.Error("expected error on empty input")
	}
	// Header-only is fine: zero rows.
	ds, err := ReadDemo(strings.NewReader("primaryid$caseid$event_dt$rept_cod$age$age_cod$sex$occr_country\n"))
	if err != nil || len(ds) != 0 {
		t.Errorf("header-only: %v rows, err %v", len(ds), err)
	}
}

func TestReadExtraColumnsTolerated(t *testing.T) {
	in := "primaryid$pt$extra_col\n1$Rash$junk\n"
	rs, err := ReadReac(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Term != "Rash" {
		t.Errorf("rows = %+v", rs)
	}
}

func TestReadCRLF(t *testing.T) {
	in := "primaryid$pt\r\n1$Rash\r\n"
	rs, err := ReadReac(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Term != "Rash" {
		t.Errorf("CRLF term = %q", rs[0].Term)
	}
}

func loadSampleQuarter(t *testing.T) *Quarter {
	t.Helper()
	demos, err := ReadDemo(strings.NewReader(demoSample))
	if err != nil {
		t.Fatal(err)
	}
	drugs, err := ReadDrug(strings.NewReader(drugSample))
	if err != nil {
		t.Fatal(err)
	}
	reacs, err := ReadReac(strings.NewReader(reacSample))
	if err != nil {
		t.Fatal(err)
	}
	outcs, err := ReadOutc(strings.NewReader(outcSample))
	if err != nil {
		t.Fatal(err)
	}
	return &Quarter{Label: "2014Q1", Demos: demos, Drugs: drugs, Reacs: reacs, Outcs: outcs}
}

func TestQuarterReports(t *testing.T) {
	q := loadSampleQuarter(t)
	reports := q.Reports()
	if len(reports) != 3 {
		t.Fatalf("assembled %d reports, want 3", len(reports))
	}
	r := reports[0]
	if r.PrimaryID != "1001" {
		t.Fatalf("order wrong: %s first", r.PrimaryID)
	}
	if !reflect.DeepEqual(r.Drugs, []string{"ASPIRIN", "WARFARIN"}) {
		t.Errorf("drugs = %v", r.Drugs)
	}
	if !reflect.DeepEqual(r.Reactions, []string{"Haemorrhage", "Nausea"}) {
		t.Errorf("reactions = %v", r.Reactions)
	}
	if !r.Serious() {
		t.Error("report 1001 has outcome HO, should be serious")
	}
	// Drug sequence must be respected even when file order differs.
	r3 := reports[2]
	if !reflect.DeepEqual(r3.Drugs, []string{"PREVACID", "NEXIUM"}) {
		t.Errorf("report 1003 drugs = %v, want seq order", r3.Drugs)
	}
	if r3.Serious() {
		t.Error("report 1003 has no outcomes")
	}
}

func TestFilterExpedited(t *testing.T) {
	q := loadSampleQuarter(t)
	exp := FilterExpedited(q.Reports())
	if len(exp) != 2 {
		t.Fatalf("EXP reports = %d, want 2", len(exp))
	}
	for _, r := range exp {
		if r.ReportCode != "EXP" {
			t.Errorf("non-EXP report %s kept", r.PrimaryID)
		}
	}
}

func TestFilesForLabels(t *testing.T) {
	fs, err := FilesFor("/data", "2014Q3")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(fs.Demo) != "DEMO14Q3.txt" || filepath.Base(fs.Outc) != "OUTC14Q3.txt" {
		t.Errorf("files = %+v", fs)
	}
	for _, bad := range []string{"", "2014", "2014Q5", "14Q1", "abcdQ1"} {
		if _, err := FilesFor("/data", bad); err == nil {
			t.Errorf("label %q should be rejected", bad)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	q := loadSampleQuarter(t)
	if err := SaveQuarter(dir, q); err != nil {
		t.Fatal(err)
	}
	got, err := LoadQuarter(dir, "2014Q1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Demos, q.Demos) {
		t.Errorf("demos differ:\n got %+v\nwant %+v", got.Demos, q.Demos)
	}
	if !reflect.DeepEqual(got.Drugs, q.Drugs) {
		t.Errorf("drugs differ")
	}
	if !reflect.DeepEqual(got.Reacs, q.Reacs) {
		t.Errorf("reacs differ")
	}
	if !reflect.DeepEqual(got.Outcs, q.Outcs) {
		t.Errorf("outcs differ")
	}
}

func TestLoadQuarterMissingOutcTolerated(t *testing.T) {
	dir := t.TempDir()
	q := loadSampleQuarter(t)
	if err := SaveQuarter(dir, q); err != nil {
		t.Fatal(err)
	}
	fs, _ := FilesFor(dir, "2014Q1")
	if err := os.Remove(fs.Outc); err != nil {
		t.Fatal(err)
	}
	got, err := LoadQuarter(dir, "2014Q1")
	if err != nil {
		t.Fatalf("missing OUTC should be tolerated: %v", err)
	}
	if len(got.Outcs) != 0 {
		t.Errorf("outcs = %v", got.Outcs)
	}
}

func TestLoadQuarterMissingDemoFails(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadQuarter(dir, "2014Q1"); err == nil {
		t.Error("missing DEMO should fail")
	}
}

// referenceReports assembles reports the direct way: a map of report
// pointers, drug rows stably sorted by (PrimaryID, Seq), and the
// reports sorted by PrimaryID.
func referenceReports(q *Quarter) []Report {
	byID := make(map[string]*Report)
	get := func(id string) *Report {
		r := byID[id]
		if r == nil {
			r = &Report{PrimaryID: id}
			byID[id] = r
		}
		return r
	}
	for _, d := range q.Demos {
		r := get(d.PrimaryID)
		r.CaseID, r.ReportCode, r.Sex, r.Age = d.CaseID, d.ReportCode, d.Sex, d.Age
		r.AgeCode, r.Country, r.EventDate = d.AgeCode, d.Country, d.EventDate
	}
	drugRows := append([]Drug(nil), q.Drugs...)
	sort.SliceStable(drugRows, func(i, j int) bool {
		if drugRows[i].PrimaryID != drugRows[j].PrimaryID {
			return drugRows[i].PrimaryID < drugRows[j].PrimaryID
		}
		return drugRows[i].Seq < drugRows[j].Seq
	})
	for _, d := range drugRows {
		r := get(d.PrimaryID)
		r.Drugs = append(r.Drugs, d.Name)
		r.DrugRoles = append(r.DrugRoles, d.RoleCode)
	}
	for _, rc := range q.Reacs {
		r := get(rc.PrimaryID)
		r.Reactions = append(r.Reactions, rc.Term)
	}
	for _, oc := range q.Outcs {
		r := get(oc.PrimaryID)
		r.Outcomes = append(r.Outcomes, oc.Code)
	}
	out := make([]Report, 0, len(byID))
	for _, r := range byID {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PrimaryID < out[j].PrimaryID })
	return out
}

// Reports must assemble exactly what the direct join does on tables in
// arbitrary order: shuffled rows, drug sequence numbers out of order
// and repeated, demographics repeated, and drug, reaction and outcome
// rows of reports that have no demographics.
func TestQuarterReportsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	id := func() string { return fmt.Sprintf("%d", 1000+rng.Intn(300)) }
	var q Quarter
	for i := 0; i < 250; i++ {
		q.Demos = append(q.Demos, Demo{PrimaryID: id(), CaseID: fmt.Sprint(i), Sex: "F"})
	}
	for i := 0; i < 900; i++ {
		q.Drugs = append(q.Drugs, Drug{PrimaryID: id(), Seq: 1 + rng.Intn(6), RoleCode: "PS", Name: fmt.Sprintf("D%d", i)})
	}
	for i := 0; i < 700; i++ {
		q.Reacs = append(q.Reacs, Reac{PrimaryID: id(), Term: fmt.Sprintf("R%d", i)})
	}
	for i := 0; i < 200; i++ {
		q.Outcs = append(q.Outcs, Outc{PrimaryID: id(), Code: "HO"})
	}
	got, want := q.Reports(), referenceReports(&q)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("assembled reports differ from the direct join (%d vs %d reports)", len(got), len(want))
	}
}
