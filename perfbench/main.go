// Command perfbench is the MARAS benchmark. It runs one of two
// workloads against the code of the checkout it is built from and
// prints the measured metrics as JSON:
//
//	mine-quarter  one synthetic 15,000-report quarter mined through
//	              core.Run with maras-mine's options, repeatedly
//	surveil-cold  two sessions reviewing signals of uniformly drawn
//	              quarters of a maras-server holding 8 (twice its LRU),
//	              each review with its cross-quarter timeline and drift,
//	              while new quarters are published into the store
//
// The traced surveil-cold run also measures the warm interactive
// layers: two analyst sessions walking the UI over as many quarters as
// the LRU holds, against the server with and without its telemetry.
// That walk is not a workload of its own: on a shared two-vCPU host its
// throughput swung by up to 40% between runs, far beyond any bound a
// regression gate could use.
//
// Every metric is taken from outside the program: wall clocks around
// calls into its public packages, HTTP requests to the maras-server
// binary, and that server's own /metrics. With -trace 0 the run
// reports the end-to-end metrics; with -trace 1 it reports the
// per-layer metrics instead, and records spans around every call it
// makes into a layer.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload surveil-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object; the line
// before it is a fuller report (environment, checks, digests and the
// metrics under their descriptive names). The exit status is nonzero
// when an output check fails, and on any error, in which case no
// result is printed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports. An "op" is the
// workload's unit of work as its user waits for it: one core.Run for
// mine-quarter, one request for surveil-cold. A 40-second run fits only
// about ten core.Runs, so mine-quarter's op_p99_ms is its slowest run.
// mem_mb is the peak live Go heap of
// a core.Run for mine-quarter and the server's median resident set over
// the measured phase for surveil-cold. Their peaks including
// garbage (heap objects, VmHWM) are in the report line; they swing with
// GC timing far more than these.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"mem_mb", "MiB"},
}

// routes are the request kinds timed per route in the traced runs. The
// browse walk's routes are served warm; the cold_ ones are the same
// routes in the surveillance mix, where most quarters must be decoded.
var routes = []string{"api_signals", "signal", "glyph", "glyph_zoom", "barchart", "report", "timeline",
	"cold_signal", "cold_glyph_zoom", "cold_barchart", "cold_timeline", "drift", "quarters"}

// perLayer are the metrics every traced run reports. A workload that
// does not exercise a layer reports it as 0 and lists it under
// "not_exercised" in the report line.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, st := range []string{"clean", "encode", "mine", "closure_filter", "rule_gen", "mcac_build", "rank", "validate_link"} {
		out = append(out, metricDef{"stage." + st + ".s", "s"}, metricDef{"stage." + st + ".alloc_mb", "MiB"})
	}
	out = append(out,
		metricDef{"stage.uncovered.s", "s"},
		metricDef{"stage.uncovered_share", "ratio"},
		metricDef{"fpgrowth.frequent_itemsets", "count"},
		metricDef{"closure.closed_itemsets", "count"},
		metricDef{"closure.kept_ratio", "ratio"},
		metricDef{"assoc.rules_kept", "count"},
		metricDef{"mcac.clusters", "count"},
		metricDef{"mine.traced_s", "s"},
		metricDef{"mine.untraced_s", "s"},
	)
	for _, r := range routes {
		out = append(out, metricDef{"route." + r + ".p50_ms", "ms"}, metricDef{"route." + r + ".p99_ms", "ms"})
	}
	out = append(out,
		metricDef{"glyph.contextual_us", "us"},
		metricDef{"glyph.zoom_us", "us"},
		metricDef{"glyph.barchart_us", "us"},
		metricDef{"obs.overhead_p50_us", "us"},
		metricDef{"obs.overhead_req_per_s", "1/s"},
		metricDef{"obs.on_req_per_s", "1/s"},
		metricDef{"obs.off_req_per_s", "1/s"},
		metricDef{"store.lookups", "count"},
		metricDef{"store.lru_hits", "count"},
		metricDef{"store.lru_misses", "count"},
		metricDef{"store.evictions", "count"},
		metricDef{"store.hit_ratio", "ratio"},
		metricDef{"store.decodes", "count"},
		metricDef{"store.decode_ms", "ms"},
		metricDef{"store.warm_decodes", "count"},
		metricDef{"codec.decode_ms", "ms"},
		metricDef{"codec.bytes_per_quarter", "bytes"},
		metricDef{"trend.assemble_ms", "ms"},
		metricDef{"trend.assemblies", "count"},
		metricDef{"audit.drift_ms", "ms"},
		metricDef{"watch.evaluations", "count"},
		metricDef{"watch.eval_ms", "ms"},
		metricDef{"publish.count", "count"},
		metricDef{"publish.ms", "ms"},
		metricDef{"shed.total", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"server.cpu_s", "s"},
		metricDef{"server.requests", "count"},
		metricDef{"loadgen.cpu_s", "s"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
	return out
}()

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*outcome, error){
	"mine-quarter": runMine,
	"surveil-cold": runSurveil,
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository checkout
	server   string // maras-server binary
	work     string // scratch directory for this run
	out      string // directory for reports and span files
	commit   string
}

// outcome is what a workload run produces.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64 // end-to-end metrics (untraced runs)
	layers            map[string]float64 // per-layer metrics (traced runs)
	named             map[string]float64 // descriptive metrics for the report line
	checks            map[string]any
	info              map[string]any
	spans             *spanLog
}

func newOutcome() *outcome {
	return &outcome{
		e2e:    map[string]float64{},
		layers: map[string]float64{},
		named:  map[string]float64{},
		checks: map[string]any{},
		info:   map[string]any{},
	}
}

// fail records output-check failures.
func (o *outcome) fail(msgs ...string) { o.failures = append(o.failures, msgs...) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		c       config
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "how long the measured phase runs")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of the end-to-end ones")
	)
	flag.StringVar(&c.workload, "workload", "", "mine-quarter or surveil-cold")
	flag.StringVar(&c.root, "root", ".", "repository checkout the benchmark runs in")
	flag.StringVar(&c.server, "server", "", "maras-server binary built from the checkout")
	flag.StringVar(&c.work, "work", ".bench_build/work", "scratch directory")
	flag.StringVar(&c.commit, "commit", "unknown", "commit the checkout was made from")
	flag.Parse()
	c.seed, c.seconds, c.trace = *seed, time.Duration(*seconds)*time.Second, *trace == 1

	run, ok := workloads[c.workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload mine-quarter|surveil-cold, -seconds >= 1 and -trace 0|1")
		os.Exit(2)
	}
	if c.server == "" && c.workload == "surveil-cold" {
		fmt.Fprintln(os.Stderr, "perfbench: -server is required for surveil-cold")
		os.Exit(2)
	}
	c.out = filepath.Join(filepath.Dir(c.work), "out")
	c.work = filepath.Join(c.work, fmt.Sprintf("%s-%d-%d", c.workload, c.seed, *trace))
	if err := os.RemoveAll(c.work); err != nil {
		fatal(err)
	}
	for _, d := range []string{c.work, c.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fatal(err)
		}
	}

	o, err := run(&c)
	if err != nil {
		fatal(err)
	}
	res := result{
		Correct:   len(o.failures) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	defs, values := endToEnd, o.e2e
	if c.trace {
		defs, values = perLayer, o.layers
	}
	var missing []string
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok {
			missing = append(missing, m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if !c.trace && len(missing) > 0 {
		fatal(fmt.Errorf("workload %s did not measure %v", c.workload, missing))
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", c.workload, c.seed, *trace)
	if err := o.spans.writeFile(filepath.Join(c.out, tag+"-spans.json")); err != nil {
		fatal(err)
	}
	report := map[string]any{
		"workload":      c.workload,
		"environment":   environment(&c),
		"inputs":        o.info,
		"checks":        o.checks,
		"failures":      o.failures,
		"metrics":       o.named,
		"not_exercised": missing,
		"attempted":     o.attempted,
		"failed":        o.failed,
	}
	if c.trace {
		report["metrics"] = o.layers
	}
	line, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.out, tag+".json"), line, 0o644); err != nil {
		fatal(err)
	}
	final, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	fmt.Println(string(final))
	if !res.Correct {
		for _, f := range o.failures {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
		}
		os.Exit(1) // the snapshots and server logs stay for inspection
	}
	_ = os.RemoveAll(c.work)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// environment records what the numbers depend on besides the code.
func environment(c *config) map[string]any {
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        c.commit,
		"source_digest": sourceDigest(c.root),
		"seed":          c.seed,
		"seconds":       c.seconds.Seconds(),
		"trace":         c.trace,
	}
}

// sourceDigest hashes the Go sources and module files of the checkout
// (outside the benchmark's build directory), identifying the code
// measured when the checkout carries no version control metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\n", rel)
		io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
