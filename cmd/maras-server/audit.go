package main

// Audit surface of store mode: the quality and drift reports the
// Registry assembles (see internal/store/audit.go) served as JSON, the
// human quarters index with its drift column, and the startup audit
// sweep that walks every stored quarter so threshold breaches land on
// the event log before the first operator looks at /debug/audit.

import (
	"context"
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"strings"

	"maras/internal/audit"
	"maras/internal/obs"
	"maras/internal/store"
)

// handleQuality serves /api/quality/{label}: the quarter's ingest-
// quality report — persisted metrics plus findings and verdict
// evaluated against the trailing quarters at current thresholds.
func (ss *storeServer) handleQuality(w http.ResponseWriter, r *http.Request) {
	label := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/api/quality/"), "/")
	if label == "" || strings.Contains(label, "/") {
		http.Error(w, "usage: /api/quality/{quarter}", http.StatusBadRequest)
		return
	}
	if !ss.reg.Has(label) {
		http.Error(w, fmt.Sprintf("quarter %q not in store", label), http.StatusNotFound)
		return
	}
	q, err := ss.reg.QualityContext(r.Context(), label)
	if err != nil {
		ss.logger.Error("quality", "quarter", label, "err", err)
		http.Error(w, "quality report unavailable", http.StatusInternalServerError)
		return
	}
	writeJSON(w, ss, "quality", q)
}

// handleDrift serves /api/drift/{from}/{to}: the signal-set diff
// between two stored quarters over the configured top-K. The body is
// built once per trend assembly (see trendMemo); the report is still
// recorded on the audit log on every request, where repeats dedup.
func (ss *storeServer) handleDrift(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/api/drift/"), "/")
	from, to, ok := strings.Cut(rest, "/")
	if !ok || from == "" || to == "" || strings.Contains(to, "/") {
		http.Error(w, "usage: /api/drift/{from}/{to}", http.StatusBadRequest)
		return
	}
	for _, label := range []string{from, to} {
		if !ss.reg.Has(label) {
			http.Error(w, fmt.Sprintf("quarter %q not in store", label), http.StatusNotFound)
			return
		}
	}
	if from == to {
		http.Error(w, "drift needs two distinct quarters", http.StatusBadRequest)
		return
	}
	// The span covers the assembly, as DriftContext's does.
	ctx, span := obs.StartSpan(r.Context(), store.SpanDrift)
	defer span.End()
	ta, err := ss.reg.TrendAnalysisContext(ctx)
	if err != nil {
		ss.logger.Error("drift", "from", from, "to", to, "err", err)
		http.Error(w, "drift report unavailable", http.StatusInternalServerError)
		return
	}
	k := memoKey{route: "drift", a: from, b: to}
	e, ok := ss.memo.get(ta, k)
	if ok {
		ss.auditor.RecordDrift(e.drift)
	} else {
		d, err := ss.reg.DriftOver(ctx, ta, from, to)
		if err != nil {
			ss.logger.Error("drift", "from", from, "to", to, "err", err)
			http.Error(w, "drift report unavailable", http.StatusInternalServerError)
			return
		}
		body, err := json.Marshal(d)
		if err != nil {
			ss.logger.Error("drift encode", "err", err)
			http.Error(w, "internal encode error", http.StatusInternalServerError)
			return
		}
		e = memoEntry{body: obs.Precompress(body), drift: d}
		ss.memo.put(ta, k, e)
	}
	if err := obs.WriteEncoded(w, r, "application/json", e.body); err != nil {
		ss.logger.Warn("drift write", "err", err)
	}
}

// writeJSON encodes v fully before writing so a marshal failure yields
// a clean 500 instead of a truncated 200.
func writeJSON(w http.ResponseWriter, ss *storeServer, what string, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		ss.logger.Error(what+" encode", "err", err)
		http.Error(w, "internal encode error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		ss.logger.Warn(what+" write", "err", err)
	}
}

var quartersTmpl = template.Must(template.New("quarters").Parse(`<!DOCTYPE html>
<html><head><title>MARAS store — quarters</title>
<style>
body{font-family:sans-serif;margin:2em;background:#fafafa}
table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:4px 10px;font-size:13px;text-align:right}
td:first-child,th:first-child{text-align:left}
.ok{color:#2a7}
.warn{color:#c80;font-weight:bold}
.fail{color:#b33;font-weight:bold}
.dim{color:#999}
</style></head><body>
<h1>MARAS store — {{len .Rows}} quarters</h1>
<p>Default quarter: <a href="/">{{.Default}}</a> · alert timeline at <a href="/debug/audit">/debug/audit</a></p>
{{if .SLOs}}<p>SLOs (<a href="/api/slo">/api/slo</a>):
{{range .SLOs}} <span class="{{.Status}}">{{.Name}}</span> ({{.Detail}}) ·{{end}}
 history at <a href="/debug/history">/debug/history</a></p>{{end}}
<table>
<tr><th>Quarter</th><th>Reports</th><th>Drop&nbsp;rate</th><th>Signals</th><th>Quality</th>
<th>Churn vs prev</th><th>Rank shift</th><th>New</th><th>Dropped</th><th>Drift</th></tr>
{{range .Rows}}<tr>
<td><a href="/q/{{.Label}}/">{{.Label}}</a></td>
{{if .Quality}}<td>{{.Quality.Reports}}</td><td>{{printf "%.1f%%" .DropPct}}</td><td>{{.Quality.Signals}}</td><td class="{{.Quality.Verdict}}">{{.Quality.Verdict}}</td>
{{else}}<td class="dim" colspan="4">unavailable</td>{{end}}
{{if .Drift}}<td>{{printf "%.0f%%" .ChurnPct}}</td><td>{{printf "%.0f%%" .ShiftPct}}</td><td>{{.Drift.New}}</td><td>{{.Drift.Dropped}}</td><td class="{{.Drift.Verdict}}">{{.Drift.Verdict}}</td>
{{else}}<td class="dim" colspan="5">&mdash;</td>{{end}}
</tr>{{end}}
</table></body></html>`))

type quarterRow struct {
	Label   string
	Quality *audit.QualityReport
	Drift   *audit.DriftReport // vs the previous quarter; nil for the first
}

func (r quarterRow) DropPct() float64  { return 100 * r.Quality.DropRate }
func (r quarterRow) ChurnPct() float64 { return 100 * r.Drift.ChurnRate }
func (r quarterRow) ShiftPct() float64 { return 100 * r.Drift.RankShift }

// handleQuartersPage serves the human quarters index at /quarters:
// one row per stored quarter with its quality verdict and its drift
// against the preceding quarter. Report assembly is best-effort — a
// quarter that fails to audit renders as "unavailable" rather than
// failing the page.
func (ss *storeServer) handleQuartersPage(w http.ResponseWriter, r *http.Request) {
	if err := ss.reg.RefreshContext(r.Context()); err != nil {
		ss.logger.Warn("store rescan", "err", err)
	}
	labels := ss.reg.Quarters()
	rows := make([]quarterRow, 0, len(labels))
	for i, label := range labels {
		row := quarterRow{Label: label}
		if q, err := ss.reg.QualityContext(r.Context(), label); err == nil {
			row.Quality = q
		} else {
			ss.logger.Warn("quarters page quality", "quarter", label, "err", err)
		}
		if i > 0 {
			if d, err := ss.reg.DriftContext(r.Context(), labels[i-1], label); err == nil {
				row.Drift = d
			} else {
				ss.logger.Warn("quarters page drift", "from", labels[i-1], "to", label, "err", err)
			}
		}
		rows = append(rows, row)
	}
	data := struct {
		Default string
		Rows    []quarterRow
		SLOs    []sloSummary
	}{Default: ss.reg.Latest(), Rows: rows, SLOs: ss.slos.summarize()}
	var sb strings.Builder
	if err := quartersTmpl.Execute(&sb, data); err != nil {
		ss.logger.Error("quarters page render", "err", err)
		http.Error(w, "internal render error", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if _, err := w.Write([]byte(sb.String())); err != nil {
		ss.logger.Warn("quarters page write", "err", err)
	}
}

// auditSweep evaluates every stored quarter's quality and every
// adjacent pair's drift once, so startup populates the event log and
// gauges without waiting for the first API hit. Errors are logged and
// skipped — the sweep is an advisory pass, not a gate. It returns the
// number of quarters audited (tests call it synchronously; main runs
// it in a goroutine after the server is ready).
func (ss *storeServer) auditSweep(ctx context.Context) int {
	labels := ss.reg.Quarters()
	audited := 0
	for i, label := range labels {
		if ctx.Err() != nil {
			return audited
		}
		if _, err := ss.reg.QualityContext(ctx, label); err != nil {
			ss.logger.Warn("audit sweep quality", "quarter", label, "err", err)
			continue
		}
		audited++
		if i > 0 {
			if _, err := ss.reg.DriftContext(ctx, labels[i-1], label); err != nil {
				ss.logger.Warn("audit sweep drift", "from", labels[i-1], "to", label, "err", err)
			}
		}
	}
	st := ss.auditor.Log.Stats()
	ss.logger.Info("audit sweep complete", "quarters", audited,
		"events", st.Total, "warn", st.Warn, "fail", st.Fail)
	return audited
}
