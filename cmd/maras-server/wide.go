package main

import (
	"time"

	"maras/internal/audit"
	"maras/internal/obs"
	"maras/internal/obs/prof"
	"maras/internal/obs/wide"
)

// newDiag assembles the /debug/diag cross-signal join from whatever
// subsystems this process runs: the wide-event ring, the trace
// journal, the audit timeline, the SLO engine plus readiness causes,
// and the CRC-verified profile artifact index. The optional
// subsystems (ring, journal, SLO engine, captor) leave their section
// out of the report when nil.
func newDiag(events *wide.Ring, journal *obs.Journal, alog *audit.Log, slos *sloStack, ready *obs.Readiness, captor *prof.Captor) wide.Diag {
	d := wide.Diag{Ring: events, FindTrace: journal.Find}
	d.Audit = func(from, to time.Time) []wide.DiagAuditEvent {
		var out []wide.DiagAuditEvent
		for _, e := range alog.Recent(0) {
			if e.Time.Before(from) || e.Time.After(to) {
				continue
			}
			out = append(out, wide.DiagAuditEvent{
				Time: e.Time, Rule: e.Rule, Severity: string(e.Severity),
				Scope: e.Scope, Message: e.Message,
			})
		}
		return out
	}
	d.SLO = func() wide.SLOState {
		s := wide.SLOState{Degraded: ready.DegradedCauses()}
		if eng := slos.engine(); eng != nil {
			s.Breached = eng.Report().Breached()
		}
		return s
	}
	if captor != nil {
		pstore := captor.Store()
		d.Profiles = func(from, to time.Time) []wide.ProfileRef {
			var out []wide.ProfileRef
			for _, a := range pstore.List() {
				if a.TakenAt.Before(from) || a.TakenAt.After(to) {
					continue
				}
				_, _, err := pstore.Read(a.ID) // re-verifies the CRC
				out = append(out, wide.ProfileRef{
					ID: a.ID, Kind: a.Kind, Cause: a.Cause, TakenAt: a.TakenAt,
					Link: "/debug/profiles/" + a.ID, Verified: err == nil,
				})
			}
			return out
		}
	}
	return d
}
