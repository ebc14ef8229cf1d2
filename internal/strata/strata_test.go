package strata

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"maras/internal/faers"
)

func TestAgeBandOf(t *testing.T) {
	cases := []struct {
		age, code string
		want      AgeBand
	}{
		{"5", "YR", AgeChild},
		{"17", "YR", AgeChild},
		{"18", "YR", AgeAdult},
		{"44", "YR", AgeAdult},
		{"45", "YR", AgeMiddle},
		{"64", "YR", AgeMiddle},
		{"65", "YR", AgeSenior},
		{"90", "YR", AgeSenior},
		{"6", "MON", AgeChild},
		{"100", "WK", AgeChild},
		{"300", "DY", AgeChild},
		{"7", "DEC", AgeSenior},
		{"54", "", AgeMiddle},
		{"", "YR", AgeUnknown},
		{"abc", "YR", AgeUnknown},
		{"-3", "YR", AgeUnknown},
		{"40", "LY", AgeUnknown}, // unknown unit
	}
	for _, c := range cases {
		if got := ageBandOf(c.age, c.code); got != c.want {
			t.Errorf("ageBandOf(%q,%q) = %q, want %q", c.age, c.code, got, c.want)
		}
	}
}

func TestNormalizeSex(t *testing.T) {
	if normalizeSex("F") != "F" || normalizeSex("M") != "M" {
		t.Error("F/M mangled")
	}
	for _, s := range []string{"UNK", "", "X"} {
		if normalizeSex(s) != "unknown" {
			t.Errorf("normalizeSex(%q) = %q", s, normalizeSex(s))
		}
	}
}

func TestDistribution(t *testing.T) {
	d := Distribution{"F": 30, "M": 10}
	if d.Total() != 40 {
		t.Errorf("Total = %d", d.Total())
	}
	if d.Share("F") != 0.75 {
		t.Errorf("Share(F) = %v", d.Share("F"))
	}
	if got := d.Keys(); len(got) != 2 || got[0] != "F" {
		t.Errorf("Keys = %v", got)
	}
	if (Distribution{}).Share("F") != 0 {
		t.Error("empty Share should be 0")
	}
}

// buildCorpus: background 50/50 F/M mixed ages; signal reports all
// senior women.
func buildCorpus() ([]faers.Report, []string) {
	var all []faers.Report
	var signalIDs []string
	for i := 0; i < 200; i++ {
		sex := "F"
		if i%2 == 0 {
			sex = "M"
		}
		age := fmt.Sprint(20 + (i % 60))
		all = append(all, faers.Report{
			PrimaryID: fmt.Sprintf("bg%d", i), Sex: sex, Age: age, AgeCode: "YR",
		})
	}
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("sig%d", i)
		all = append(all, faers.Report{
			PrimaryID: id, Sex: "F", Age: "72", AgeCode: "YR",
		})
		signalIDs = append(signalIDs, id)
	}
	return all, signalIDs
}

func TestBuildProfile(t *testing.T) {
	all, ids := buildCorpus()
	p := Build(all, ids)
	if p.SexSignal["F"] != 30 || p.SexSignal["M"] != 0 {
		t.Errorf("sex signal = %v", p.SexSignal)
	}
	if p.AgeSignal[string(AgeSenior)] != 30 {
		t.Errorf("age signal = %v", p.AgeSignal)
	}
	if p.SexBackground.Total() != 230 {
		t.Errorf("sex background total = %d", p.SexBackground.Total())
	}
	// A strongly skewed signal must have large chi-square values.
	if p.SexChiSquare < 10 {
		t.Errorf("sex chi² = %v, want large", p.SexChiSquare)
	}
	if p.AgeChiSquare < 10 {
		t.Errorf("age chi² = %v, want large", p.AgeChiSquare)
	}
}

func TestBuildUnskewedProfile(t *testing.T) {
	var all []faers.Report
	var ids []string
	for i := 0; i < 400; i++ {
		sex := "F"
		if i%2 == 0 {
			sex = "M"
		}
		id := fmt.Sprintf("r%d", i)
		all = append(all, faers.Report{PrimaryID: id, Sex: sex, Age: fmt.Sprint(20 + i%60), AgeCode: "YR"})
		if i%3 == 0 { // every 3rd report supports the signal; i%3
			// alternates parity, so sexes stay balanced
			ids = append(ids, id)
		}
	}
	p := Build(all, ids)
	if p.SexChiSquare > 4 {
		t.Errorf("unbiased signal sex chi² = %v, want small", p.SexChiSquare)
	}
	if len(p.Enriched(0.15)) != 0 {
		t.Errorf("unbiased signal enriched = %v", p.Enriched(0.15))
	}
}

func TestEnriched(t *testing.T) {
	all, ids := buildCorpus()
	p := Build(all, ids)
	enriched := p.Enriched(0.2)
	if len(enriched) == 0 {
		t.Fatal("skewed signal shows no enrichment")
	}
	joined := strings.Join(enriched, " | ")
	if !strings.Contains(joined, "sex F") {
		t.Errorf("female enrichment missing: %v", enriched)
	}
	if !strings.Contains(joined, "age 65+") {
		t.Errorf("senior enrichment missing: %v", enriched)
	}
	// Strongest excess first.
	if len(enriched) >= 2 && !strings.HasPrefix(enriched[0], "age 65+") {
		// age excess (~95pp) should beat sex excess (~48pp)
		t.Errorf("enrichment order = %v", enriched)
	}
}

func TestBuildIgnoresUnknownIDs(t *testing.T) {
	all, _ := buildCorpus()
	p := Build(all, []string{"nope"})
	if p.SexSignal.Total() != 0 {
		t.Errorf("unknown ID counted: %v", p.SexSignal)
	}
	if p.SexChiSquare != 0 {
		t.Errorf("empty signal chi² = %v", p.SexChiSquare)
	}
}

func TestUnknownStrataExcludedFromChi(t *testing.T) {
	var all []faers.Report
	var ids []string
	for i := 0; i < 50; i++ {
		id := fmt.Sprintf("u%d", i)
		all = append(all, faers.Report{PrimaryID: id, Sex: "UNK"})
		ids = append(ids, id)
	}
	p := Build(all, ids)
	if p.SexChiSquare != 0 {
		t.Errorf("all-unknown chi² = %v, want 0", p.SexChiSquare)
	}
}

// TestColumnProfileMatchesBuild: the compact column gives Build's
// profile exactly, with repeated IDs, unknown strata and IDs that name
// no report.
func TestColumnProfileMatchesBuild(t *testing.T) {
	all, ids := buildCorpus()
	all = append(all,
		faers.Report{PrimaryID: "sig3", Sex: "M", Age: "30", AgeCode: "YR"}, // repeats sig3
		faers.Report{PrimaryID: "odd", Sex: "UNK", Age: "40", AgeCode: "LY"},
	)
	ids = append(ids, "nope", "odd")
	col := ColumnOf(all)
	var members []int
	for i := range all {
		for _, id := range ids {
			if all[i].PrimaryID == id {
				members = append(members, i)
				break
			}
		}
	}
	got, want := col.Profile(members), Build(all, ids)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("column profile\n got %+v\nwant %+v", got, want)
	}
	for i, r := range col {
		if !r.Valid() {
			t.Errorf("row %d = %+v is not valid", i, r)
		}
		if sexValues[r.Sex] != normalizeSex(all[i].Sex) || ageBands[r.Age] != ageBandOf(all[i].Age, all[i].AgeCode) {
			t.Errorf("row %d = %+v does not code report %+v", i, r, all[i])
		}
	}
	if (Row{Sex: uint8(len(sexValues))}).Valid() || (Row{Age: uint8(len(ageBands))}).Valid() {
		t.Error("out-of-range codes reported valid")
	}
}
