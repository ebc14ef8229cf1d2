package core

import (
	"maras/internal/cleaning"
	"maras/internal/txdb"
	"maras/internal/types"
)

// This file holds the small export/rehydrate surface the snapshot
// store (package store) builds on. An Analysis is expensive to
// compute — cleaning, FP-Growth mining, cluster construction and
// ranking over a full FAERS quarter — but cheap to describe: its
// stats, its ranked signals (each carrying its full MCAC), the
// dictionary that gives item IDs meaning, and the raw reports the
// signals link back to. Rehydrate reassembles a servable Analysis
// from exactly those parts, so a quarter mined once can be served
// many times from disk without ever touching the miners again.

// Rehydrate reassembles an Analysis from its persisted parts. The
// dictionary must be the one the signals' clusters were encoded
// against (item IDs are dense and order-defined, so re-interning the
// persisted names in ID order reproduces it exactly). A nil report set
// stands for no reports.
//
// A rehydrated Analysis serves every read path — Signals,
// FilterSignals, Report drill-down, Demographics, glyph rendering via
// the clusters — but carries no transaction database: DB() returns
// nil, and re-mining requires the raw quarter files. That is the
// point: serving a warm quarter does zero mining.
func Rehydrate(stats txdb.Stats, cstats cleaning.Stats, counts Counts,
	signals []Signal, dict *types.Dictionary, reports *ReportSet) *Analysis {
	return &Analysis{
		Stats:    stats,
		Cleaning: cstats,
		Counts:   counts,
		Signals:  signals,
		dict:     dict,
		reports:  reports,
	}
}
