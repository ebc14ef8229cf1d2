package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"maras/internal/core"
)

func TestGenQuarterCaches(t *testing.T) {
	cfg := benchConfig{seed: 99, reports: 300, minsup: 3}
	q1, gt1, err := genQuarter(cfg, "2014Q1", 0)
	if err != nil {
		t.Fatal(err)
	}
	q2, gt2, err := genQuarter(cfg, "2014Q1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 || gt1 != gt2 {
		t.Error("same config should return the cached quarter")
	}
	q3, _, err := genQuarter(cfg, "2014Q2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if q3 == q1 {
		t.Error("different label must not hit the same cache entry")
	}
	if len(q1.Demos) < cfg.reports {
		t.Errorf("generated %d demos, want >= %d", len(q1.Demos), cfg.reports)
	}
}

func TestPaperTable51CoversAllQuarters(t *testing.T) {
	for _, label := range quarterLabels {
		p, ok := paperTable51[label]
		if !ok {
			t.Errorf("paper numbers missing for %s", label)
			continue
		}
		if p[0] < 100_000 || p[1] < 30_000 || p[2] < 9_000 {
			t.Errorf("%s paper numbers implausible: %v", label, p)
		}
	}
}

func TestDrugKeyHelper(t *testing.T) {
	cfg := benchConfig{seed: 5, reports: 300, minsup: 3}
	q, _, err := genQuarter(cfg, "2014Q1", 0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := buildDB(q)
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 {
		t.Fatal("empty db")
	}
}

func TestTracedRunCollectsAndWrites(t *testing.T) {
	saved := benchTraces
	benchTraces = nil
	defer func() { benchTraces = saved }()

	cfg := benchConfig{seed: 11, reports: 400, minsup: 3}
	q, _, err := genQuarter(cfg, "2014Q1", 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.NewOptions()
	opts.MinSupport = cfg.minsup
	if _, err := tracedRun("test-exp", q, opts); err != nil {
		t.Fatal(err)
	}
	if len(benchTraces) != 1 {
		t.Fatalf("collected %d trace runs, want 1", len(benchTraces))
	}
	run := benchTraces[0]
	if run.Experiment != "test-exp" || run.Quarter != "2014Q1" {
		t.Errorf("trace run labels = %+v", run)
	}
	if want := opts.Stages(); len(run.Stages) != len(want) {
		t.Errorf("trace has %d stages, want %d", len(run.Stages), len(want))
	}

	path := filepath.Join(t.TempDir(), "BENCH_trace.json")
	if err := writeTraces(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded traceArtifact
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("artifact not valid JSON: %v", err)
	}
	if len(decoded.Runs) != 1 || decoded.Runs[0].Stages[0].Name != core.StageOrder()[0] {
		t.Errorf("artifact round trip wrong: %+v", decoded)
	}
	// The runtime snapshot must carry live process context.
	if decoded.Runtime.Goroutines <= 0 || decoded.Runtime.HeapBytes == 0 {
		t.Errorf("artifact runtime context empty: %+v", decoded.Runtime)
	}
}

func TestWriteTracesEmptyStillValidJSON(t *testing.T) {
	saved := benchTraces
	benchTraces = nil
	defer func() { benchTraces = saved }()
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := writeTraces(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	var decoded traceArtifact
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("empty artifact invalid: %v (%s)", err, data)
	}
	if decoded.Runs == nil || len(decoded.Runs) != 0 {
		t.Errorf("want empty runs array, got %v", decoded.Runs)
	}
}

// A failing experiment must not hide the ones after it: every
// requested experiment runs, in order, and the failures are named.
func TestRunExperimentsKeepsGoing(t *testing.T) {
	var ran []string
	runner := func(id string, err error) func(benchConfig) error {
		return func(benchConfig) error { ran = append(ran, id); return err }
	}
	runners := map[string]func(benchConfig) error{
		"a": runner("a", nil),
		"b": runner("b", errors.New("gate failed")),
		"c": runner("c", nil),
		"d": runner("d", errors.New("gate failed")),
	}
	failed := runExperiments([]string{"b", "a", "d", "c"}, runners, benchConfig{})
	if !slices.Equal(ran, []string{"b", "a", "d", "c"}) {
		t.Errorf("ran %v, want every experiment in order", ran)
	}
	if !slices.Equal(failed, []string{"b", "d"}) {
		t.Errorf("failed = %v, want [b d]", failed)
	}
}

// Unknown ids are rejected before anything runs; "all" is the order.
func TestExperimentIDs(t *testing.T) {
	runners := map[string]func(benchConfig) error{"a": nil, "b": nil}
	order := []string{"a", "b"}
	if ids, err := experimentIDs("all", order, runners); err != nil || !slices.Equal(ids, order) {
		t.Errorf("all: %v, %v", ids, err)
	}
	if ids, err := experimentIDs("b, a", order, runners); err != nil || !slices.Equal(ids, []string{"b", "a"}) {
		t.Errorf("b, a: %v, %v", ids, err)
	}
	if ids, err := experimentIDs("a,nope", order, runners); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("a,nope: %v, %v; want an error naming nope", ids, err)
	}
}
