// Package strata profiles the demographics behind a signal: the sex
// and age distribution of the supporting reports compared against the
// full report population, with a chi-square screen for whether the
// signal concentrates in a stratum. Section 4.1 motivates exactly
// this drill-down — after MARAS surfaces a plausible interaction,
// "they need to be further investigated in order to [find] the
// relevant factors causing the interaction, such as patient's age,
// health history etc."
package strata

import (
	"fmt"
	"sort"
	"strconv"

	"maras/internal/faers"
)

// AgeBand buckets patient ages the way safety reviews tabulate them.
type AgeBand string

const (
	AgeChild   AgeBand = "0-17"
	AgeAdult   AgeBand = "18-44"
	AgeMiddle  AgeBand = "45-64"
	AgeSenior  AgeBand = "65+"
	AgeUnknown AgeBand = "unknown"
)

// ageBandOf converts a FAERS age string (with its unit code) to a band.
func ageBandOf(age, code string) AgeBand {
	if age == "" {
		return AgeUnknown
	}
	v, err := strconv.ParseFloat(age, 64)
	if err != nil || v < 0 {
		return AgeUnknown
	}
	years := v
	switch code {
	case "MON":
		years = v / 12
	case "WK":
		years = v / 52
	case "DY":
		years = v / 365
	case "DEC":
		years = v * 10
	case "", "YR":
		// already years
	default:
		return AgeUnknown
	}
	switch {
	case years < 18:
		return AgeChild
	case years < 45:
		return AgeAdult
	case years < 65:
		return AgeMiddle
	default:
		return AgeSenior
	}
}

// normalizeSex collapses the FAERS sex codes to F/M/unknown.
func normalizeSex(s string) string {
	switch s {
	case "F", "M":
		return s
	default:
		return "unknown"
	}
}

// Distribution counts reports per stratum value.
type Distribution map[string]int

// Total returns the distribution's total count.
func (d Distribution) Total() int {
	n := 0
	for _, c := range d {
		n += c
	}
	return n
}

// Share returns the fraction of the total held by value.
func (d Distribution) Share(value string) float64 {
	t := d.Total()
	if t == 0 {
		return 0
	}
	return float64(d[value]) / float64(t)
}

// Keys returns the stratum values sorted for deterministic output.
func (d Distribution) Keys() []string {
	out := make([]string, 0, len(d))
	for k := range d {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Profile is the demographic comparison of a signal's supporting
// reports against the background population.
type Profile struct {
	// SexSignal/SexBackground count reports by sex.
	SexSignal     Distribution
	SexBackground Distribution
	// AgeSignal/AgeBackground count reports by age band.
	AgeSignal     Distribution
	AgeBackground Distribution
	// SexChiSquare / AgeChiSquare test whether the signal's
	// distribution differs from the background (df = strata−1;
	// "unknown" strata are excluded from the statistic).
	SexChiSquare float64
	AgeChiSquare float64
}

// Enriched reports strata whose share among supporting reports
// exceeds the background share by at least delta (absolute), sorted
// by excess — the "who is affected" summary line.
func (p *Profile) Enriched(delta float64) []string {
	type excess struct {
		label string
		by    float64
	}
	var out []excess
	collect := func(sig, bg Distribution, kind string) {
		for _, k := range sig.Keys() {
			if k == "unknown" {
				continue
			}
			e := sig.Share(k) - bg.Share(k)
			if e >= delta {
				out = append(out, excess{fmt.Sprintf("%s %s (+%.0f%%)", kind, k, e*100), e})
			}
		}
	}
	collect(p.SexSignal, p.SexBackground, "sex")
	collect(p.AgeSignal, p.AgeBackground, "age")
	sort.Slice(out, func(i, j int) bool { return out[i].by > out[j].by })
	labels := make([]string, len(out))
	for i, e := range out {
		labels[i] = e.label
	}
	return labels
}

// Build computes the profile of the reports named by supportingIDs
// within the full report set. Unknown IDs are ignored.
func Build(all []faers.Report, supportingIDs []string) Profile {
	inSignal := make(map[string]bool, len(supportingIDs))
	for _, id := range supportingIDs {
		inSignal[id] = true
	}
	p := Profile{
		SexSignal: Distribution{}, SexBackground: Distribution{},
		AgeSignal: Distribution{}, AgeBackground: Distribution{},
	}
	for i := range all {
		r := &all[i]
		sex := normalizeSex(r.Sex)
		age := string(ageBandOf(r.Age, r.AgeCode))
		p.SexBackground[sex]++
		p.AgeBackground[age]++
		if inSignal[r.PrimaryID] {
			p.SexSignal[sex]++
			p.AgeSignal[age]++
		}
	}
	p.SexChiSquare = chiSquare(p.SexSignal, p.SexBackground)
	p.AgeChiSquare = chiSquare(p.AgeSignal, p.AgeBackground)
	return p
}

// Row is one report's strata in compact form: a sex code and an
// age-band code, indices into sexValues and ageBands.
type Row struct{ Sex, Age uint8 }

// sexValues and ageBands list the stratum values in code order: a
// Row's Sex and Age index them. Snapshots persist the codes, so new
// values go at the end.
var (
	sexValues = [...]string{"unknown", "F", "M"}
	ageBands  = [...]AgeBand{AgeUnknown, AgeChild, AgeAdult, AgeMiddle, AgeSenior}
)

// rowOf returns the strata of one report in compact form.
func rowOf(r *faers.Report) Row {
	var row Row
	sex, age := normalizeSex(r.Sex), ageBandOf(r.Age, r.AgeCode)
	for i, v := range sexValues {
		if v == sex {
			row.Sex = uint8(i)
		}
	}
	for i, b := range ageBands {
		if b == age {
			row.Age = uint8(i)
		}
	}
	return row
}

// Valid reports whether both codes name a stratum value.
func (r Row) Valid() bool {
	return int(r.Sex) < len(sexValues) && int(r.Age) < len(ageBands)
}

// Column holds the strata of a report population in compact form, one
// valid Row per report in input order.
type Column []Row

// ColumnOf builds the column of reports.
func ColumnOf(reports []faers.Report) Column {
	c := make(Column, len(reports))
	for i := range reports {
		c[i] = rowOf(&reports[i])
	}
	return c
}

// Profile computes the profile Build computes, from the column alone:
// members are the distinct indices of the supporting reports.
func (c Column) Profile(members []int) Profile {
	var sexBg, sexSig [len(sexValues)]int
	var ageBg, ageSig [len(ageBands)]int
	for _, r := range c {
		sexBg[r.Sex]++
		ageBg[r.Age]++
	}
	for _, i := range members {
		sexSig[c[i].Sex]++
		ageSig[c[i].Age]++
	}
	p := Profile{
		SexSignal: distOf(sexSig[:], sexValues[:]), SexBackground: distOf(sexBg[:], sexValues[:]),
		AgeSignal: distOf(ageSig[:], ageBands[:]), AgeBackground: distOf(ageBg[:], ageBands[:]),
	}
	p.SexChiSquare = chiSquare(p.SexSignal, p.SexBackground)
	p.AgeChiSquare = chiSquare(p.AgeSignal, p.AgeBackground)
	return p
}

// distOf turns per-code counts into a distribution over the values
// that occur, as Build's increments produce it.
func distOf[V ~string](counts []int, values []V) Distribution {
	d := Distribution{}
	for i, n := range counts {
		if n > 0 {
			d[string(values[i])] = n
		}
	}
	return d
}

// chiSquare computes Σ (obs − exp)² / exp where exp scales the
// background distribution to the signal's total, over known strata,
// summed in key order so equal distributions give equal statistics.
func chiSquare(sig, bg Distribution) float64 {
	sigTotal, bgTotal := 0, 0
	for k, c := range sig {
		if k != "unknown" {
			sigTotal += c
		}
	}
	for k, c := range bg {
		if k != "unknown" {
			bgTotal += c
		}
	}
	if sigTotal == 0 || bgTotal == 0 {
		return 0
	}
	chi := 0.0
	for _, k := range bg.Keys() {
		if k == "unknown" {
			continue
		}
		exp := float64(bg[k]) / float64(bgTotal) * float64(sigTotal)
		if exp == 0 {
			continue
		}
		d := float64(sig[k]) - exp
		chi += d * d / exp
	}
	return chi
}
