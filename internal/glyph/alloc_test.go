package glyph

import "testing"

// The served glyph routes render a zoomed glyph and a bar chart per
// request. Every tooltip and label goes through escape, so a per-call
// cost there is paid once per sector; escape must reuse one Replacer.
func TestEscapeSharesReplacer(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { _ = escape("ASPIRIN+WARFARIN") }); n != 0 {
		t.Errorf("escape of a clean string allocates %.0f times, want 0", n)
	}
}

// TestRendererAllocs bounds the allocations of one Zoom and one
// BarChart render of a three-drug cluster (six contextual rules), the
// shape of a served signal page's images. The bounds sit a little over
// the measured counts (see EXPERIMENTS.md), far under what a Replacer
// built per escape call costs.
func TestRendererAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	c, dict := testCluster(t)
	for _, tc := range []struct {
		name   string
		render func()
		max    float64
	}{
		{"Zoom", func() { _ = Zoom(c, dict) }, 250},
		{"BarChart", func() { _ = BarChart(c, Options{Dict: dict}) }, 140},
	} {
		n := testing.AllocsPerRun(50, tc.render)
		t.Logf("%s: %.0f allocs/op", tc.name, n)
		if n > tc.max {
			t.Errorf("%s allocates %.0f times per render, want <= %.0f", tc.name, n, tc.max)
		}
	}
}
