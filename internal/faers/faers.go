// Package faers reads and writes the FDA Adverse Event Reporting
// System quarterly ASCII extracts the paper mines (Section 5.1): the
// DEMO, DRUG, REAC and OUTC files of a quarter, with '$'-delimited
// columns and a header row naming them. Files produced by the
// synthetic generator (package synth) use the identical layout, so
// real FAERS extracts drop into the pipeline unchanged.
//
// Only the columns the pipeline consumes are modeled; unknown columns
// are preserved by position on read and ignored, exactly how ad-hoc
// FAERS tooling treats the format.
package faers

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Demo is one demographics row (one per report version).
type Demo struct {
	PrimaryID  string // unique report identifier
	CaseID     string // case identifier (stable across versions)
	EventDate  string // yyyymmdd, may be empty
	ReportCode string // EXP (expedited), PER (periodic), DIR (direct)
	Age        string // numeric string, unit in AgeCode
	AgeCode    string // YR, MON, DY ...
	Sex        string // M / F / UNK
	Country    string // occr_country
}

// Drug is one drug row; a report has one row per reported medication.
type Drug struct {
	PrimaryID string
	Seq       int    // drug_seq, 1-based within the report
	RoleCode  string // PS (primary suspect), SS, C (concomitant), I
	Name      string // verbatim drugname as reported
}

// Reac is one reaction row (MedDRA preferred term, verbatim).
type Reac struct {
	PrimaryID string
	Term      string // pt
}

// Outc is one outcome row (DE death, HO hospitalization, ...).
type Outc struct {
	PrimaryID string
	Code      string
}

// Quarter bundles one quarter's raw tables.
type Quarter struct {
	Label string // e.g. "2014Q1"
	Demos []Demo
	Drugs []Drug
	Reacs []Reac
	Outcs []Outc
}

// Report is one adverse-event report assembled from the raw tables:
// the unit the miner abstracts to a transaction.
type Report struct {
	PrimaryID  string
	CaseID     string
	ReportCode string
	Sex        string
	Age        string
	AgeCode    string
	Country    string
	EventDate  string
	Drugs      []string // verbatim drug names, report order
	DrugRoles  []string // role codes aligned with Drugs (PS/SS/C/I); may be empty
	Reactions  []string // verbatim reaction terms, report order
	Outcomes   []string // outcome codes
}

// SuspectDrugs returns the drugs reported with a suspect role (PS
// primary suspect, SS secondary suspect, I interacting). When the
// report carries no role data every drug is returned: role-less
// reports cannot be narrowed.
func (r *Report) SuspectDrugs() []string {
	if len(r.DrugRoles) != len(r.Drugs) {
		return r.Drugs
	}
	var out []string
	for i, role := range r.DrugRoles {
		switch role {
		case "PS", "SS", "I":
			out = append(out, r.Drugs[i])
		}
	}
	if len(out) == 0 {
		return r.Drugs // all-concomitant reports keep their drugs
	}
	return out
}

// Expedited reports whether the report is an expedited (EXP) one.
func (r *Report) Expedited() bool { return r.ReportCode == "EXP" }

// Serious reports whether the report carries any severe outcome code.
func (r *Report) Serious() bool { return len(r.Outcomes) > 0 }

// Reports joins the quarter's tables by PrimaryID into assembled
// reports, ordered by PrimaryID for determinism. Drug rows are ordered
// by their sequence number. Reports lacking a DEMO row are still
// emitted (FAERS extracts do contain orphans) with only the fields
// present.
func (q *Quarter) Reports() []Report {
	index := make(map[string]int32, len(q.Demos))
	reps := make([]Report, 0, len(q.Demos))
	// Extracts list a report's rows together, so the last report
	// looked up usually answers the next lookup too.
	lastID, last := "", int32(-1)
	get := func(id string) int32 {
		if last >= 0 && id == lastID {
			return last
		}
		i, ok := index[id]
		if !ok {
			i = int32(len(reps))
			index[id] = i
			reps = append(reps, Report{PrimaryID: id})
		}
		lastID, last = id, i
		return i
	}
	for _, d := range q.Demos {
		r := &reps[get(d.PrimaryID)]
		r.CaseID = d.CaseID
		r.ReportCode = d.ReportCode
		r.Sex = d.Sex
		r.Age = d.Age
		r.AgeCode = d.AgeCode
		r.Country = d.Country
		r.EventDate = d.EventDate
	}

	// Bucket the drug rows by report, in file order, then order each
	// bucket by sequence number (stably, so repeated numbers keep
	// file order).
	owner := make([]int32, len(q.Drugs))
	for i := range q.Drugs {
		owner[i] = get(q.Drugs[i].PrimaryID)
	}
	start := make([]int32, len(reps)+1)
	for _, o := range owner {
		start[o+1]++
	}
	for i := range reps {
		start[i+1] += start[i]
	}
	next := slices.Clone(start)
	rows := make([]int32, len(q.Drugs))
	for i, o := range owner {
		rows[next[o]] = int32(i)
		next[o]++
	}
	for i := range reps {
		bucket := rows[start[i]:start[i+1]]
		if len(bucket) == 0 {
			continue
		}
		slices.SortStableFunc(bucket, func(a, b int32) int { return cmp.Compare(q.Drugs[a].Seq, q.Drugs[b].Seq) })
		r := &reps[i]
		r.Drugs = make([]string, len(bucket))
		r.DrugRoles = make([]string, len(bucket))
		for k, row := range bucket {
			r.Drugs[k] = q.Drugs[row].Name
			r.DrugRoles[k] = q.Drugs[row].RoleCode
		}
	}
	for _, rc := range q.Reacs {
		r := &reps[get(rc.PrimaryID)]
		r.Reactions = append(r.Reactions, rc.Term)
	}
	for _, oc := range q.Outcs {
		r := &reps[get(oc.PrimaryID)]
		r.Outcomes = append(r.Outcomes, oc.Code)
	}

	order := make([]int32, len(reps))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(reps[a].PrimaryID, reps[b].PrimaryID) })
	out := make([]Report, len(reps))
	for i, k := range order {
		out[i] = reps[k]
	}
	return out
}

// FilterExpedited keeps only EXP reports — the paper selects "the
// mandatory reports submitted by manufacturers marked as expedited
// (EXP) as these reports contain at least one severe adverse event".
func FilterExpedited(reports []Report) []Report {
	out := make([]Report, 0, len(reports))
	for i := range reports {
		if reports[i].Expedited() {
			out = append(out, reports[i])
		}
	}
	return out
}

// column headers, matching the public FAERS ASCII layout field names
// (lower-cased as FDA ships them).
var (
	demoHeader = []string{"primaryid", "caseid", "event_dt", "rept_cod", "age", "age_cod", "sex", "occr_country"}
	drugHeader = []string{"primaryid", "drug_seq", "role_cod", "drugname"}
	reacHeader = []string{"primaryid", "pt"}
	outcHeader = []string{"primaryid", "outc_cod"}
)

// ReadDemo parses a DEMO table from r.
func ReadDemo(r io.Reader) ([]Demo, error) {
	var out []Demo
	err := readTable(r, "DEMO", demoHeader, func(get func(string) string) {
		out = append(out, Demo{
			PrimaryID:  get("primaryid"),
			CaseID:     get("caseid"),
			EventDate:  get("event_dt"),
			ReportCode: get("rept_cod"),
			Age:        get("age"),
			AgeCode:    get("age_cod"),
			Sex:        get("sex"),
			Country:    get("occr_country"),
		})
	})
	return out, err
}

// ReadDrug parses a DRUG table from r.
func ReadDrug(r io.Reader) ([]Drug, error) {
	var out []Drug
	var badSeq error
	err := readTable(r, "DRUG", drugHeader, func(get func(string) string) {
		seq := 0
		if s := get("drug_seq"); s != "" {
			if _, err := fmt.Sscanf(s, "%d", &seq); err != nil && badSeq == nil {
				badSeq = fmt.Errorf("faers: DRUG row for %s: bad drug_seq %q", get("primaryid"), s)
			}
		}
		out = append(out, Drug{
			PrimaryID: get("primaryid"),
			Seq:       seq,
			RoleCode:  get("role_cod"),
			Name:      get("drugname"),
		})
	})
	if err == nil {
		err = badSeq
	}
	return out, err
}

// ReadReac parses a REAC table from r.
func ReadReac(r io.Reader) ([]Reac, error) {
	var out []Reac
	err := readTable(r, "REAC", reacHeader, func(get func(string) string) {
		out = append(out, Reac{PrimaryID: get("primaryid"), Term: get("pt")})
	})
	return out, err
}

// ReadOutc parses an OUTC table from r.
func ReadOutc(r io.Reader) ([]Outc, error) {
	var out []Outc
	err := readTable(r, "OUTC", outcHeader, func(get func(string) string) {
		out = append(out, Outc{PrimaryID: get("primaryid"), Code: get("outc_cod")})
	})
	return out, err
}

// readTable reads a '$'-delimited table with a header row. Column
// positions come from the header, so extra columns in real extracts
// are tolerated; each required column must appear.
func readTable(r io.Reader, kind string, required []string, row func(get func(string) string)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return fmt.Errorf("faers: reading %s header: %w", kind, err)
		}
		return fmt.Errorf("faers: empty %s table", kind)
	}
	cols := strings.Split(strings.TrimRight(sc.Text(), "\r"), "$")
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		idx[strings.ToLower(strings.TrimSpace(c))] = i
	}
	for _, req := range required {
		if _, ok := idx[req]; !ok {
			return fmt.Errorf("faers: %s table missing column %q", kind, req)
		}
	}
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r")
		if line == "" {
			continue
		}
		fields := strings.Split(line, "$")
		get := func(name string) string {
			i := idx[name]
			if i >= len(fields) {
				return ""
			}
			return strings.TrimSpace(fields[i])
		}
		row(get)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("faers: %s line %d: %w", kind, lineNo, err)
	}
	return nil
}

// WriteDemo writes ds as a DEMO table.
func WriteDemo(w io.Writer, ds []Demo) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, strings.Join(demoHeader, "$"))
	for _, d := range ds {
		fmt.Fprintf(bw, "%s$%s$%s$%s$%s$%s$%s$%s\n",
			d.PrimaryID, d.CaseID, d.EventDate, d.ReportCode, d.Age, d.AgeCode, d.Sex, d.Country)
	}
	return bw.Flush()
}

// WriteDrug writes ds as a DRUG table.
func WriteDrug(w io.Writer, ds []Drug) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, strings.Join(drugHeader, "$"))
	for _, d := range ds {
		fmt.Fprintf(bw, "%s$%d$%s$%s\n", d.PrimaryID, d.Seq, d.RoleCode, d.Name)
	}
	return bw.Flush()
}

// WriteReac writes rs as a REAC table.
func WriteReac(w io.Writer, rs []Reac) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, strings.Join(reacHeader, "$"))
	for _, r := range rs {
		fmt.Fprintf(bw, "%s$%s\n", r.PrimaryID, r.Term)
	}
	return bw.Flush()
}

// WriteOutc writes os as an OUTC table.
func WriteOutc(w io.Writer, os []Outc) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, strings.Join(outcHeader, "$"))
	for _, o := range os {
		fmt.Fprintf(bw, "%s$%s\n", o.PrimaryID, o.Code)
	}
	return bw.Flush()
}
