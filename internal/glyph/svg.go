// Package glyph renders the paper's visual artifacts as
// dependency-free SVG: the Contextual Glyph (Fig 4.1), the zoomed
// glyph view (Fig 4.3), the panoramagram grid of glyphs (Fig 4.2) and
// the MCAC bar-chart alternative (Fig 5.3) that the user study
// compares against.
//
// Geometry follows Section 4: the inner circle's diameter encodes the
// target rule's confidence; each surrounding circular sector encodes
// one contextual rule, the distance from the sector's arc to the
// inner circle encoding that rule's confidence; sectors start at 12
// o'clock, ordered by antecedent cardinality (darker = more drugs),
// then by descending confidence within a cardinality band.
package glyph

import (
	"fmt"
	"math"
	"strings"
)

// svg accumulates SVG markup.
type svg struct {
	b strings.Builder
}

func newSVG(w, h float64) *svg {
	s := &svg{}
	fmt.Fprintf(&s.b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`,
		w, h, w, h)
	s.b.WriteByte('\n')
	return s
}

func (s *svg) circle(cx, cy, r float64, fill string) {
	fmt.Fprintf(&s.b, `<circle cx="%.2f" cy="%.2f" r="%.2f" fill="%s"/>`, cx, cy, r, fill)
	s.b.WriteByte('\n')
}

func (s *svg) path(d, fill, stroke string, width float64, title string) {
	fmt.Fprintf(&s.b, `<path d="%s" fill="%s" stroke="%s" stroke-width="%.2f">`, d, fill, stroke, width)
	if title != "" {
		fmt.Fprintf(&s.b, `<title>%s</title>`, escape(title))
	}
	s.b.WriteString("</path>\n")
}

func (s *svg) rect(x, y, w, h float64, fill, title string) {
	fmt.Fprintf(&s.b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s">`, x, y, w, h, fill)
	if title != "" {
		fmt.Fprintf(&s.b, `<title>%s</title>`, escape(title))
	}
	s.b.WriteString("</rect>\n")
}

func (s *svg) text(x, y float64, size float64, anchor, content string) {
	fmt.Fprintf(&s.b, `<text x="%.2f" y="%.2f" font-size="%.1f" font-family="sans-serif" text-anchor="%s">%s</text>`,
		x, y, size, anchor, escape(content))
	s.b.WriteByte('\n')
}

func (s *svg) line(x1, y1, x2, y2 float64, stroke string, width float64) {
	fmt.Fprintf(&s.b, `<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%.2f"/>`,
		x1, y1, x2, y2, stroke, width)
	s.b.WriteByte('\n')
}

func (s *svg) group(transform string) { fmt.Fprintf(&s.b, `<g transform="%s">`+"\n", transform) }
func (s *svg) groupEnd()              { s.b.WriteString("</g>\n") }

func (s *svg) done() string {
	s.b.WriteString("</svg>\n")
	return s.b.String()
}

// escaper is shared: a Replacer builds its lookup table on first use
// and is safe for concurrent use, so escape pays only for the scan.
// Single quotes pass through (unlike html.EscapeString): every
// attribute this package writes is double-quoted.
var escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func escape(t string) string { return escaper.Replace(t) }

// sectorPath returns the SVG path of an annular sector centered at
// (cx,cy) spanning [a0,a1) radians (0 = 12 o'clock, clockwise) between
// radii r0 < r1.
func sectorPath(cx, cy, r0, r1, a0, a1 float64) string {
	// Convert "clockwise from 12 o'clock" to standard math angles.
	toXY := func(r, a float64) (float64, float64) {
		return cx + r*math.Sin(a), cy - r*math.Cos(a)
	}
	x0o, y0o := toXY(r1, a0)
	x1o, y1o := toXY(r1, a1)
	x1i, y1i := toXY(r0, a1)
	x0i, y0i := toXY(r0, a0)
	large := 0
	if a1-a0 > math.Pi {
		large = 1
	}
	return fmt.Sprintf("M %.2f %.2f A %.2f %.2f 0 %d 1 %.2f %.2f L %.2f %.2f A %.2f %.2f 0 %d 0 %.2f %.2f Z",
		x0o, y0o, r1, r1, large, x1o, y1o,
		x1i, y1i, r0, r0, large, x0i, y0i)
}

// levelColor returns the fill for a contextual band: the more drugs in
// the contextual antecedent, the darker (Section 4: "the darker the
// larger").
func levelColor(cardinality, maxCardinality int) string {
	if maxCardinality < 1 {
		maxCardinality = 1
	}
	// Lightness from 78% (1 drug) down to 38% (max drugs).
	frac := float64(cardinality-1) / float64(maxCardinality)
	l := 78 - 40*frac
	return fmt.Sprintf("hsl(210, 55%%, %.0f%%)", l)
}

const targetColor = "hsl(14, 75%, 55%)" // inner circle (target rule)
