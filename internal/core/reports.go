package core

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"maras/internal/faers"
	"maras/internal/strata"
)

// ReportSource is a raw report population that can be read one report
// at a time. The snapshot store implements it over a loaded file's
// verified bytes, so holding a quarter's reports costs no per-report
// allocation until one is opened.
type ReportSource interface {
	// Len returns the number of reports.
	Len() int
	// ComparePrimaryID compares report i's PrimaryID with id as
	// strings.Compare does, without decoding the rest of the report.
	ComparePrimaryID(i int, id string) int
	// Report decodes report i; ok is false when its encoding is
	// damaged.
	Report(i int) (r faers.Report, ok bool)
}

// ReportIndex is what drill-down and demographics read instead of the
// report bodies: every report's strata in input order, and the report
// indices sorted by PrimaryID, equal IDs in input order.
type ReportIndex struct {
	Strata strata.Column
	ByID   []uint32
}

// ReportSet is the raw report population behind an Analysis: a decoded
// list (fresh runs, v1/v2 snapshots) or an encoded source with its
// index (v3 snapshots). Whichever of the list and the index a set
// starts without is built once, on first use.
type ReportSet struct {
	src   ReportSource
	all   func() []faers.Report
	index func() ReportIndex
}

// ReportList wraps decoded reports, in input order.
func ReportList(reports []faers.Report) *ReportSet {
	src := reportList(reports)
	return &ReportSet{
		src:   src,
		all:   func() []faers.Report { return reports },
		index: sync.OnceValue(func() ReportIndex { return indexReports(src) }),
	}
}

// EncodedReports wraps an encoded source and its index. The index must
// describe src: one valid strata row per report, and ByID a
// permutation of the report indices sorted as ReportIndex says.
func EncodedReports(src ReportSource, idx ReportIndex) *ReportSet {
	return &ReportSet{
		src: src,
		all: sync.OnceValue(func() []faers.Report {
			out := make([]faers.Report, src.Len())
			for i := range out {
				out[i], _ = src.Report(i)
			}
			return out
		}),
		index: func() ReportIndex { return idx },
	}
}

// indexReports codes src's strata and sorts its report indices by
// PrimaryID.
func indexReports(src reportList) ReportIndex {
	byID := make([]uint32, len(src))
	for i := range byID {
		byID[i] = uint32(i)
	}
	slices.SortStableFunc(byID, func(x, y uint32) int {
		return strings.Compare(src[x].PrimaryID, src[y].PrimaryID)
	})
	return ReportIndex{Strata: strata.ColumnOf(src), ByID: byID}
}

// find returns the positions [lo, hi) of idx.ByID whose reports carry
// PrimaryID id.
func (rs *ReportSet) find(idx ReportIndex, id string) (lo, hi int) {
	n := len(idx.ByID)
	lo = sort.Search(n, func(k int) bool { return rs.src.ComparePrimaryID(int(idx.ByID[k]), id) >= 0 })
	hi = lo + sort.Search(n-lo, func(k int) bool { return rs.src.ComparePrimaryID(int(idx.ByID[lo+k]), id) > 0 })
	return lo, hi
}

// reportList serves decoded reports as a ReportSource.
type reportList []faers.Report

func (l reportList) Len() int { return len(l) }

func (l reportList) ComparePrimaryID(i int, id string) int {
	return strings.Compare(l[i].PrimaryID, id)
}

func (l reportList) Report(i int) (faers.Report, bool) { return l[i], true }

// RawReports returns the original (uncleaned) reports in input order —
// the content the snapshot store persists for drill-down. On an
// analysis loaded from an encoded source the first call decodes every
// report. Callers must not mutate the returned slice.
func (a *Analysis) RawReports() []faers.Report {
	if a.reports == nil {
		return nil
	}
	return a.reports.all()
}

// ReportIndex returns the index drill-down and demographics read,
// building it on first use for a decoded report list.
func (a *Analysis) ReportIndex() ReportIndex {
	if a.reports == nil {
		return ReportIndex{}
	}
	return a.reports.index()
}

// Report returns the original (uncleaned) report with the given
// primary ID and whether it exists — the raw-report drill-down of
// Section 4.1 ("It is essential to analyze the original data reports
// submitted by patients"). When several reports share the ID, the
// last one in input order wins.
func (a *Analysis) Report(primaryID string) (faers.Report, bool) {
	if a.reports == nil {
		return faers.Report{}, false
	}
	idx := a.reports.index()
	lo, hi := a.reports.find(idx, primaryID)
	if lo == hi {
		return faers.Report{}, false
	}
	return a.reports.src.Report(int(idx.ByID[hi-1]))
}

// Demographics profiles the supporting reports of a signal against
// the whole population (sex and age-band distributions with
// chi-square screens) — the relevant-factors investigation Section
// 4.1 calls for. It reads the strata column, never the report bodies,
// and equals strata.Build over the raw reports.
func (a *Analysis) Demographics(s *Signal) strata.Profile {
	idx := a.ReportIndex()
	var members []int
	for _, id := range s.ReportIDs {
		lo, hi := a.reports.find(idx, id)
		for _, i := range idx.ByID[lo:hi] {
			members = append(members, int(i))
		}
	}
	slices.Sort(members)
	return idx.Strata.Profile(slices.Compact(members))
}
