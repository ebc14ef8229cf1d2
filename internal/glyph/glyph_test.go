package glyph

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"maras/internal/assoc"
	"maras/internal/mcac"
	"maras/internal/txdb"
	"maras/internal/types"
)

func testCluster(t testing.TB) (*mcac.Cluster, *types.Dictionary) {
	t.Helper()
	dict := types.NewDictionary()
	x := dict.Intern("XOLAIR", types.DomainDrug)
	y := dict.Intern("SINGULAIR", types.DomainDrug)
	z := dict.Intern("PREDNISONE", types.DomainDrug)
	a := dict.Intern("Asthma", types.DomainReaction)
	o := dict.Intern("Cough", types.DomainReaction)
	db := txdb.New(dict)
	for i := 0; i < 6; i++ {
		db.Add(fmt.Sprintf("t%d", i), types.NewItemset(x, y, z, a))
	}
	for i := 0; i < 10; i++ {
		db.Add(fmt.Sprintf("x%d", i), types.NewItemset(x, o))
		db.Add(fmt.Sprintf("y%d", i), types.NewItemset(y, o))
		db.Add(fmt.Sprintf("z%d", i), types.NewItemset(z, o))
	}
	db.Freeze()
	target := assoc.Evaluate(db, types.NewItemset(x, y, z), types.NewItemset(a))
	c := mcac.Build(assoc.NewEvaluator(db), target)
	return &c, dict
}

func TestContextualWellFormed(t *testing.T) {
	c, dict := testCluster(t)
	doc := Contextual(c, Options{Dict: dict})
	if !strings.HasPrefix(doc, "<svg") || !strings.HasSuffix(strings.TrimSpace(doc), "</svg>") {
		t.Fatal("not an svg document")
	}
	// One sector path per contextual rule.
	if got := strings.Count(doc, "<path"); got != c.ContextSize() {
		t.Errorf("%d paths, want %d", got, c.ContextSize())
	}
	// Exactly one inner circle.
	if got := strings.Count(doc, "<circle"); got != 1 {
		t.Errorf("%d circles, want 1", got)
	}
	// Tooltips carry drug names.
	if !strings.Contains(doc, "XOLAIR") {
		t.Error("tooltips missing drug names")
	}
	// Balanced tags.
	if strings.Count(doc, "<g ") != strings.Count(doc, "</g>") {
		t.Error("unbalanced groups")
	}
}

func TestContextualInnerRadiusEncodesConfidence(t *testing.T) {
	c, _ := testCluster(t)
	low := *c
	low.Target.Confidence = 0.1
	high := *c
	high.Target.Confidence = 0.95
	rLow := innerRadiusOf(t, Contextual(&low, Options{}))
	rHigh := innerRadiusOf(t, Contextual(&high, Options{}))
	if rHigh <= rLow {
		t.Errorf("inner radius should grow with confidence: %.2f vs %.2f", rLow, rHigh)
	}
}

func innerRadiusOf(t *testing.T, doc string) float64 {
	t.Helper()
	i := strings.Index(doc, "<circle")
	if i < 0 {
		t.Fatal("no circle")
	}
	var cx, cy, r float64
	if _, err := fmt.Sscanf(doc[i:], `<circle cx="%f" cy="%f" r="%f"`, &cx, &cy, &r); err != nil {
		t.Fatalf("parse circle: %v", err)
	}
	return r
}

func TestContextualLabels(t *testing.T) {
	c, dict := testCluster(t)
	doc := Contextual(c, Options{Labels: true, Dict: dict, Size: 400})
	if strings.Count(doc, "<text") < c.ContextSize() {
		t.Errorf("labeled glyph has %d texts, want >= %d", strings.Count(doc, "<text"), c.ContextSize())
	}
}

func TestZoom(t *testing.T) {
	c, dict := testCluster(t)
	doc := Zoom(c, dict)
	if !strings.Contains(doc, `width="420"`) {
		t.Error("zoom should render at 420px")
	}
	if !strings.Contains(doc, "SINGULAIR") {
		t.Error("zoom labels missing")
	}
}

func TestBarChart(t *testing.T) {
	c, dict := testCluster(t)
	doc := BarChart(c, Options{Dict: dict})
	// One bar per rule incl. target.
	if got := strings.Count(doc, "<rect"); got != 1+c.ContextSize() {
		t.Errorf("%d bars, want %d", got, 1+c.ContextSize())
	}
	if !strings.Contains(doc, "target conf=") {
		t.Error("target bar tooltip missing")
	}
}

func TestPanorama(t *testing.T) {
	c, dict := testCluster(t)
	entries := []PanoramaEntry{
		{Cluster: c, Score: 0.9},
		{Cluster: c, Score: 0.5, Caption: "second"},
		{Cluster: c, Score: 0.1},
	}
	doc := Panorama(entries, 2, Options{Dict: dict})
	if strings.Count(doc, "<svg") != 1 {
		t.Error("nested svg envelopes leaked into panorama")
	}
	if strings.Count(doc, "<g ") != 3 {
		t.Errorf("%d groups, want 3", strings.Count(doc, "<g "))
	}
	if !strings.Contains(doc, "second") || !strings.Contains(doc, "score 0.900") {
		t.Error("captions missing")
	}
}

func TestSectorPathGeometry(t *testing.T) {
	// A quarter sector from 12 to 3 o'clock between radii 10 and 20,
	// centered at origin: starts at (0,-20), arcs to (20,0).
	d := sectorPath(0, 0, 10, 20, 0, math.Pi/2)
	var x0, y0 float64
	if _, err := fmt.Sscanf(d, "M %f %f", &x0, &y0); err != nil {
		t.Fatalf("parse path: %v", err)
	}
	if math.Abs(x0-0) > 0.01 || math.Abs(y0+20) > 0.01 {
		t.Errorf("path start = (%.2f,%.2f), want (0,-20)", x0, y0)
	}
	if !strings.Contains(d, "Z") {
		t.Error("path not closed")
	}
	// Large-arc flag set for reflex sectors.
	dBig := sectorPath(0, 0, 10, 20, 0, 1.5*math.Pi)
	if !strings.Contains(dBig, " 1 1 ") {
		t.Error("large-arc flag missing on reflex sector")
	}
}

func TestLevelColorDarkens(t *testing.T) {
	c1 := levelColor(1, 3)
	c3 := levelColor(3, 3)
	if c1 == c3 {
		t.Error("cardinality bands must differ")
	}
	var l1, l3 int
	fmt.Sscanf(c1, "hsl(210, 55%%, %d%%)", &l1)
	fmt.Sscanf(c3, "hsl(210, 55%%, %d%%)", &l3)
	if l3 >= l1 {
		t.Errorf("more drugs should be darker: L%d vs L%d", l1, l3)
	}
}

func TestEscape(t *testing.T) {
	if got := escape(`a<b>&"c"`); got != "a&lt;b&gt;&amp;&quot;c&quot;" {
		t.Errorf("escape = %q", got)
	}
}

func TestClamp01(t *testing.T) {
	if clamp01(-1) != 0 || clamp01(2) != 1 || clamp01(0.5) != 0.5 {
		t.Error("clamp01 wrong")
	}
}
