package obs

import (
	"bufio"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests.", Label{"route", "/"})
	c.Inc()
	c.Add(4)
	c.Add(-2) // ignored: counters are monotonic
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("requests_total", "Requests.", Label{"route", "/"}); again != c {
		t.Error("same name+labels must return the same counter")
	}
	if other := r.Counter("requests_total", "Requests.", Label{"route", "/x"}); other == c {
		t.Error("different labels must return a different series")
	}
	g := r.Gauge("inflight", "In flight.")
	g.Add(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Errorf("gauge = %d, want 2", g.Value())
	}
	g.Set(7)
	if g.Value() != 7 {
		t.Errorf("gauge after Set = %d, want 7", g.Value())
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-55.65) > 1e-9 {
		t.Errorf("sum = %v, want 55.65", h.Sum())
	}
	cum, total := h.snapshot()
	// le semantics: 0.05 and 0.1 fall in the 0.1 bucket.
	want := []int64{2, 3, 4}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cum bucket %d = %d, want %d", i, cum[i], w)
		}
	}
	if total != 5 {
		t.Errorf("+Inf total = %d, want 5", total)
	}
}

// promLine matches a Prometheus exposition sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.eE+-]+|[+-]Inf|NaN)$`)

// parsePrometheus validates the exposition text line by line and
// returns sample name → value for unlabeled access plus the full
// line set.
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	var lastType string
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 4 && strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("malformed TYPE line: %q", line)
			}
			if strings.HasPrefix(line, "# TYPE ") {
				lastType = fields[3]
				switch lastType {
				case "counter", "gauge", "histogram":
				default:
					t.Errorf("unknown TYPE %q in %q", lastType, line)
				}
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unknown comment line: %q", line)
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("unparseable sample line: %q", line)
			continue
		}
		sp := strings.LastIndex(line, " ")
		name := line[:sp]
		valStr := line[sp+1:]
		var v float64
		if valStr == "+Inf" {
			v = math.Inf(1)
		} else {
			f, err := strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Errorf("bad value in %q: %v", line, err)
				continue
			}
			v = f
		}
		samples[name] = v
	}
	return samples
}

func TestWritePrometheusParseable(t *testing.T) {
	r := NewRegistry()
	r.Counter("http_requests_total", "HTTP requests.", Label{"route", "/signal/"}, Label{"code", "2xx"}).Add(42)
	r.Gauge("http_inflight_requests", "In flight.").Set(2)
	h := r.Histogram("http_request_duration_seconds", "Latency.", []float64{0.01, 0.1, 1}, Label{"route", "/"})
	h.Observe(0.005)
	h.Observe(0.5)

	var b strings.Builder
	r.WritePrometheus(&b)
	text := b.String()
	samples := parsePrometheus(t, text)

	if v := samples[`http_requests_total{route="/signal/",code="2xx"}`]; v != 42 {
		t.Errorf("requests_total = %v, want 42 (text:\n%s)", v, text)
	}
	if v := samples[`http_request_duration_seconds_count{route="/"}`]; v != 2 {
		t.Errorf("histogram count = %v, want 2", v)
	}
	if v := samples[`http_request_duration_seconds_bucket{route="/",le="+Inf"}`]; v != 2 {
		t.Errorf("+Inf bucket = %v, want 2", v)
	}
	if v := samples[`http_request_duration_seconds_bucket{route="/",le="0.01"}`]; v != 1 {
		t.Errorf("0.01 bucket = %v, want 1", v)
	}
	for _, want := range []string{
		"# HELP http_requests_total HTTP requests.",
		"# TYPE http_requests_total counter",
		"# TYPE http_inflight_requests gauge",
		"# TYPE http_request_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing metadata line %q", want)
		}
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird_total", "Weird.", Label{"q", "a\"b\\c\nd"}).Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	want := `weird_total{q="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped line %q missing in:\n%s", want, b.String())
	}
	// And it must still parse.
	parsePrometheus(t, b.String())
}

func TestWriteRuntimePrometheus(t *testing.T) {
	var b strings.Builder
	WriteRuntimePrometheus(&b)
	samples := parsePrometheus(t, b.String())
	if samples["go_goroutines"] < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", samples["go_goroutines"])
	}
	if samples["go_cpus"] < 1 {
		t.Errorf("go_cpus = %v, want >= 1", samples["go_cpus"])
	}
}

func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "C.", Label{"k", "v"}).Add(3)
	h := r.Histogram("h_seconds", "H.", []float64{1})
	h.Observe(0.5)
	snap := r.Snapshot()
	cFam, ok := snap["c_total"].(map[string]any)
	if !ok {
		t.Fatalf("c_total family missing: %v", snap)
	}
	if cFam[`k="v"`] != int64(3) {
		t.Errorf("counter snapshot = %v", cFam)
	}
	hFam := snap["h_seconds"].(map[string]any)
	hv := hFam[""].(map[string]any)
	if hv["count"] != int64(1) {
		t.Errorf("histogram snapshot = %v", hv)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.PublishExpvar("obs_test_metrics")
	r.PublishExpvar("obs_test_metrics") // second call must not panic
}

// TestPrometheusHostileLabelValues drives the full hostile-value
// matrix through the renderer: backslashes, quotes, and newlines in
// label values must escape per the exposition format, and values that
// only differ in separator characters must stay distinct series.
func TestPrometheusHostileLabelValues(t *testing.T) {
	r := NewRegistry()
	hostile := []string{
		`back\slash`,
		`quo"te`,
		"new\nline",
		`trailing\`,
		"\\\"\n", // all three at once
	}
	for _, v := range hostile {
		r.Counter("hostile_total", "Hostile.", Label{"v", v}).Inc()
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		`hostile_total{v="back\\slash"} 1`,
		`hostile_total{v="quo\"te"} 1`,
		`hostile_total{v="new\nline"} 1`,
		`hostile_total{v="trailing\\"} 1`,
		`hostile_total{v="\\\"\n"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("escaped series %q missing in:\n%s", want, text)
		}
	}
	// Raw control characters must never reach the wire inside a value.
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "hostile_total") && strings.Contains(line, "\t") {
			t.Errorf("unescaped control char in %q", line)
		}
	}
	parsePrometheus(t, text)
}

// TestLabelValueSeparatorCollision pins the series-identity fix:
// values crafted so their naive "k=v,k=v" concatenations coincide
// must still be separate counters.
func TestLabelValueSeparatorCollision(t *testing.T) {
	r := NewRegistry()
	// Naively joined, both become a=1,b=2 (the first smuggles the
	// separator inside the value).
	c1 := r.Counter("collide_total", "C.", Label{"a", "1,b=2"})
	c2 := r.Counter("collide_total", "C.", Label{"a", "1"}, Label{"b", "2"})
	c1.Add(7)
	if got := c2.Value(); got != 0 {
		t.Fatalf("separator collision: distinct label sets share a counter (%d)", got)
	}
	c2.Add(5)
	if c1.Value() != 7 || c2.Value() != 5 {
		t.Errorf("counters entangled: %d %d", c1.Value(), c2.Value())
	}
}

// TestPrometheusHelpEscaping: HELP text carrying backslashes or
// newlines must escape, or the exposition format breaks on the next
// line.
func TestPrometheusHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("helpful_total", "Line one\nline two with \\ backslash.").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	text := b.String()
	want := `# HELP helpful_total Line one\nline two with \\ backslash.`
	if !strings.Contains(text, want) {
		t.Errorf("escaped HELP missing:\n%s", text)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "line two") {
			t.Errorf("raw newline split the HELP comment: %q", line)
		}
	}
	parsePrometheus(t, text)
}

// TestConcurrentFirstUseSharesOneMetric: goroutines racing to create
// the same series all get one metric, and every update lands on it.
// Run under -race.
func TestConcurrentFirstUseSharesOneMetric(t *testing.T) {
	r := NewRegistry()
	const n = 8
	gauges := make([]*Gauge, n)
	var wg sync.WaitGroup
	for i := range gauges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gauges[i] = r.Gauge("g", "", L("pair", "a->b")...)
			r.Counter("c", "", L("pair", "a->b")...).Inc()
		}(i)
	}
	wg.Wait()
	for _, g := range gauges[1:] {
		if g != gauges[0] {
			t.Fatal("concurrent first uses created distinct gauges for one series")
		}
	}
	if got := r.Counter("c", "", L("pair", "a->b")...).Value(); got != n {
		t.Errorf("counter = %d, want %d", got, n)
	}
}
