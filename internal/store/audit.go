package store

import (
	"context"
	"fmt"

	"maras/internal/audit"
	"maras/internal/obs"
	"maras/internal/trend"
)

// Audit serving: the Registry is where per-quarter snapshots and the
// cross-quarter view meet, so it assembles the two audit reports —
// ingest quality per quarter (persisted metrics + serve-time verdict
// against the trailing quarters) and signal drift between quarters
// (diffed from the cached trend assembly). Both paths record spans and
// route findings through the configured Auditor.

// Audit span names.
const (
	SpanQuality = "audit_quality"
	SpanDrift   = "audit_drift"
)

// Quality returns label's evaluated ingest-quality report: the
// persisted (or recomputed) metrics plus findings and a verdict from
// the audit thresholds, judged against up to Thresholds.Trailing
// preceding quarters. See QualityContext.
func (r *Registry) Quality(label string) (*audit.QualityReport, error) {
	return r.QualityContext(context.Background(), label)
}

// QualityContext is Quality with a request context: the evaluation
// records an "audit_quality" span, and any findings are recorded on
// the auditor's event log (deduplicated per quarter and rule).
//
// The returned report is a copy — the cached metric report is shared
// and immutable, while findings and verdict depend on thresholds that
// can differ per process.
func (r *Registry) QualityContext(ctx context.Context, label string) (*audit.QualityReport, error) {
	ctx, span := obs.StartSpan(ctx, SpanQuality)
	defer span.End()
	span.SetAttr("quarter", label)

	cur, err := r.qualityMetrics(ctx, label)
	if err != nil {
		span.SetAttr("error", err.Error())
		return nil, err
	}
	th := r.auditor.ActiveThresholds()
	trailing := r.trailingQuality(ctx, label, th.Trailing)
	span.SetInt("trailing", int64(len(trailing)))

	cp := *cur
	cp.Findings = nil
	audit.EvaluateQuality(&cp, trailing, th)
	span.SetAttr("verdict", string(cp.Verdict))
	r.auditor.RecordQuality(&cp)
	return &cp, nil
}

// qualityMetrics returns the cached metric-only quality report for
// label, loading the snapshot (which fills its row) on a cache miss.
func (r *Registry) qualityMetrics(ctx context.Context, label string) (*audit.QualityReport, error) {
	if q := r.qualityOf(label); q != nil {
		return q, nil
	}
	if _, err := r.LoadContext(ctx, label); err != nil {
		return nil, err
	}
	q := r.qualityOf(label)
	if q == nil {
		return nil, fmt.Errorf("store: quarter %q loaded without quality", label)
	}
	return q, nil
}

// qualityOf returns the quality report label's row holds, or nil.
func (r *Registry) qualityOf(label string) *audit.QualityReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w := r.rows[label]; w != nil {
		return w.q
	}
	return nil
}

// trailingQuality collects the metric reports of up to n quarters
// preceding label (oldest first). Loads are best-effort: a quarter
// that fails to load is skipped rather than failing the evaluation —
// a corrupt old snapshot should not mask the current quarter's
// verdict.
func (r *Registry) trailingQuality(ctx context.Context, label string, n int) []*audit.QualityReport {
	labels := r.Quarters()
	idx := -1
	for i, l := range labels {
		if l == label {
			idx = i
			break
		}
	}
	if idx <= 0 || n <= 0 {
		return nil
	}
	lo := idx - n
	if lo < 0 {
		lo = 0
	}
	var out []*audit.QualityReport
	for _, l := range labels[lo:idx] {
		q, err := r.qualityMetrics(ctx, l)
		if err != nil {
			continue
		}
		out = append(out, q)
	}
	return out
}

// Drift diffs the ranked top-K signal sets of two stored quarters. See
// DriftContext.
func (r *Registry) Drift(from, to string) (*audit.DriftReport, error) {
	return r.DriftContext(context.Background(), from, to)
}

// DriftContext is TrendAnalysisContext followed by DriftOver, inside
// an "audit_drift" span that also covers the assembly. The quarters are
// conventionally adjacent but any stored pair works.
func (r *Registry) DriftContext(ctx context.Context, from, to string) (*audit.DriftReport, error) {
	ctx, span := obs.StartSpan(ctx, SpanDrift)
	defer span.End()

	for _, label := range []string{from, to} {
		if !r.Has(label) {
			err := fmt.Errorf("store: quarter %q not in %s", label, r.dir)
			span.SetAttr("error", err.Error())
			return nil, err
		}
	}
	ta, err := r.TrendAnalysisContext(ctx)
	if err != nil {
		span.SetAttr("error", err.Error())
		return nil, err
	}
	return r.DriftOver(ctx, ta, from, to)
}

// DriftOver diffs quarters from and to of the trend assembly ta over the
// auditor's top-K, evaluates the drift alert rules and routes threshold
// breaches to the event log. It annotates the span active in ctx (the
// caller's "audit_drift" span) with the pair, the churn counts and the
// verdict. The report depends only on ta and the auditor's thresholds,
// so a caller may keep it for as long as ta is current.
func (r *Registry) DriftOver(ctx context.Context, ta *trend.Analysis, from, to string) (*audit.DriftReport, error) {
	span := obs.ActiveSpan(ctx)
	span.SetAttr("from", from)
	span.SetAttr("to", to)
	th := r.auditor.ActiveThresholds()
	d, err := audit.Drift(ta, from, to, th.TopK)
	if err != nil {
		span.SetAttr("error", err.Error())
		return nil, err
	}
	audit.EvaluateDrift(d, th)
	span.SetInt("new", int64(d.New))
	span.SetInt("dropped", int64(d.Dropped))
	span.SetAttr("verdict", string(d.Verdict))
	r.auditor.RecordDrift(d)
	return d, nil
}
