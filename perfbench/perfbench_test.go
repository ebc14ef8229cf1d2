package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"maras/internal/store"
)

// buildTestStore writes a two-quarter store for seed into a fresh
// directory.
func buildTestStore(t *testing.T, seed int64) *storeSet {
	t.Helper()
	set, err := buildStore(filepath.Join(t.TempDir(), "store"), seed, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestSameSeedWritesIdenticalSnapshots(t *testing.T) {
	a, b, other := buildTestStore(t, 7), buildTestStore(t, 7), buildTestStore(t, 8)
	da, err := storeDigest(a.dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := storeDigest(b.dir)
	if err != nil {
		t.Fatal(err)
	}
	do, err := storeDigest(other.dir)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Errorf("seed 7 wrote different stores: %s vs %s", da, db)
	}
	if da == do {
		t.Errorf("seeds 7 and 8 wrote the same store %s", da)
	}
}

func TestSnapshotDigestIgnoresOnlySaveTime(t *testing.T) {
	set := buildTestStore(t, 7)
	a := set.base[0].analysis
	var first, second bytes.Buffer
	if err := store.Write(&first, "2014Q1", a); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1100 * time.Millisecond) // the codec stores whole seconds
	if err := store.Write(&second, "2014Q1", a); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("snapshots a second apart are byte-identical; the save time is not where the digest assumes")
	}
	d1, err := snapshotDigest(first.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := snapshotDigest(second.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("digests differ across save times: %s vs %s", d1, d2)
	}
	var relabeled bytes.Buffer
	if err := store.Write(&relabeled, "2014Q2", a); err != nil {
		t.Fatal(err)
	}
	if d3, _ := snapshotDigest(relabeled.Bytes()); d3 == d1 {
		t.Error("digest ignores the label")
	}
}

// paths draws n requests from each planner and lists their paths.
func paths(planners []func() request, n int) [][]string {
	out := make([][]string, len(planners))
	for i, next := range planners {
		for j := 0; j < n; j++ {
			out[i] = append(out[i], next().path)
		}
	}
	return out
}

func TestSameSeedSendsSameRequests(t *testing.T) {
	set := buildTestStore(t, 7)
	browse := paths(browsePlanners(7, set.base), 70)
	if again := paths(browsePlanners(7, set.base), 70); !reflect.DeepEqual(browse, again) {
		t.Error("browse-warm: seed 7 planned two different request sequences")
	}
	if other := paths(browsePlanners(8, set.base), 70); reflect.DeepEqual(browse, other) {
		t.Error("browse-warm: seeds 7 and 8 planned the same request sequence")
	}
	if reflect.DeepEqual(browse[0], browse[1]) {
		t.Error("browse-warm: both sessions walk the same path")
	}
	surveil := paths(newSurveilState(set).planners(7), 200)
	if again := paths(newSurveilState(set).planners(7), 200); !reflect.DeepEqual(surveil, again) {
		t.Error("surveil-cold: seed 7 planned two different request sequences")
	}
	if other := paths(newSurveilState(set).planners(8), 200); reflect.DeepEqual(surveil, other) {
		t.Error("surveil-cold: seeds 7 and 8 planned the same request sequence")
	}
}

func TestMineChecksCatchWrongOutput(t *testing.T) {
	set := buildTestStore(t, 7)
	_, truth, err := population()
	if err != nil {
		t.Fatal(err)
	}
	a := set.base[0].analysis
	if _, failures := checkMine(a, truth); len(failures) != 0 {
		t.Fatalf("a mined quarter fails its checks: %v", failures)
	}
	saved := a.Signals[1]
	a.Signals[1].Support++
	if _, failures := checkMine(a, truth); len(failures) == 0 {
		t.Error("a wrong support passed the recount")
	}
	a.Signals[1] = saved
	a.Signals[0], a.Signals[1] = a.Signals[1], a.Signals[0]
	if _, failures := checkMine(a, truth); len(failures) == 0 {
		t.Error("swapped ranks passed")
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP maras_shed_total Requests shed.
# TYPE maras_shed_total counter
maras_shed_total{reason="queue_full"} 2
maras_shed_total{reason="wait_timeout"} 3
maras_store_snapshot_load_seconds_sum 0.25
maras_store_snapshot_load_seconds_count 5
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.family("maras_shed_total"); got != 5 {
		t.Errorf("shed family = %g, want 5", got)
	}
	if got := m.family("maras_store_snapshot_load_seconds_count"); got != 5 {
		t.Errorf("load count = %g, want 5", got)
	}
	if got := m.family("maras_store_snapshot_load_seconds"); got != 0 {
		t.Errorf("a family name matched its _sum/_count series: %g", got)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists in
// step with what the program reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
}
