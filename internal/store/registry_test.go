package store

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/obs"
	"maras/internal/trend"
)

// quarterAnalysis builds a tiny deterministic quarter: the
// aspirin+warfarin signal with per-quarter support so trajectories
// are visible across quarters.
func quarterAnalysis(t *testing.T, pairReports int) *core.Analysis {
	t.Helper()
	var reports []faers.Report
	id := 0
	add := func(drugs, reacs []string) {
		id++
		reports = append(reports, faers.Report{
			PrimaryID: fmt.Sprintf("%d", 1000+id), CaseID: fmt.Sprintf("c%d", id),
			ReportCode: "EXP", Drugs: drugs, Reactions: reacs,
		})
	}
	for i := 0; i < pairReports; i++ {
		add([]string{"ASPIRIN", "WARFARIN"}, []string{"Haemorrhage"})
	}
	for i := 0; i < 20; i++ {
		add([]string{"ASPIRIN"}, []string{"Nausea"})
		add([]string{"WARFARIN"}, []string{"Dizziness"})
	}
	opts := core.NewOptions()
	opts.MinSupport = 3
	a, err := core.Run(reports, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Signals) == 0 {
		t.Fatal("no signals in registry fixture")
	}
	return a
}

// tempStore saves n quarters (2014Q1..) into a temp dir and returns
// the dir.
func tempStore(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		label := fmt.Sprintf("2014Q%d", i+1)
		a := quarterAnalysis(t, 8+4*i)
		if err := WriteFile(filepath.Join(dir, label+Ext), label, a); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRegistryDiscoveryAndLoad(t *testing.T) {
	dir := tempStore(t, 3)
	reg, err := OpenRegistry(dir, RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"2014Q1", "2014Q2", "2014Q3"}
	if got := reg.Quarters(); !equalStrings(got, want) {
		t.Fatalf("quarters = %v, want %v", got, want)
	}
	if reg.Latest() != "2014Q3" {
		t.Errorf("latest = %q", reg.Latest())
	}
	a, err := reg.Load("2014Q2")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Signals) == 0 {
		t.Error("loaded quarter has no signals")
	}
	// Warm load: same pointer, no re-read.
	b, err := reg.Load("2014Q2")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("warm load rebuilt the analysis")
	}
	if _, err := reg.Load("2019Q1"); err == nil {
		t.Error("loading an absent quarter succeeded")
	}
}

func TestRegistryLRUAndMetrics(t *testing.T) {
	dir := tempStore(t, 3)
	mreg := obs.NewRegistry()
	m := obs.NewStoreMetrics(mreg)
	reg, err := OpenRegistry(dir, RegistryOptions{
		MaxOpen: 2,
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustLoad := func(label string) {
		t.Helper()
		if _, err := reg.Load(label); err != nil {
			t.Fatal(err)
		}
	}
	mustLoad("2014Q1")
	mustLoad("2014Q2")
	mustLoad("2014Q1") // touch Q1 so Q2 is the LRU victim
	mustLoad("2014Q3") // evicts Q2
	if n := reg.OpenCount(); n != 2 {
		t.Errorf("open quarters = %d, want 2", n)
	}
	if v := m.OpenQuarters.Value(); v != 2 {
		t.Errorf("open gauge = %d, want 2", v)
	}
	if v := m.Hits.Value(); v != 1 {
		t.Errorf("hits = %d, want 1", v)
	}
	if v := m.Misses.Value(); v != 3 {
		t.Errorf("misses = %d, want 3", v)
	}
	if v := m.Evictions.Value(); v != 1 {
		t.Errorf("evictions = %d, want 1", v)
	}
	if m.LoadSeconds.Count() != 3 {
		t.Errorf("load histogram count = %d, want 3", m.LoadSeconds.Count())
	}
	var size int64 // the three cold loads read each file once
	for _, label := range []string{"2014Q1", "2014Q2", "2014Q3"} {
		fi, err := os.Stat(reg.Path(label))
		if err != nil {
			t.Fatal(err)
		}
		size += fi.Size()
	}
	if got := m.BytesRead.Value(); got != size {
		t.Errorf("bytes read = %d, want %d", got, size)
	}
	// The store series render on a scrape.
	var sb strings.Builder
	mreg.WritePrometheus(&sb)
	for _, want := range []string{
		"maras_store_snapshot_load_seconds",
		"maras_store_open_quarters",
		"maras_store_cache_hits_total",
		"maras_store_cache_misses_total",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	// The victim was the least-recently used quarter: Q1 and Q3 are
	// still resident, only Q2 decodes again.
	hits, misses := m.Hits.Value(), m.Misses.Value()
	mustLoad("2014Q1")
	mustLoad("2014Q3")
	if m.Hits.Value() != hits+2 || m.Misses.Value() != misses {
		t.Errorf("Q1/Q3 reloads: hits +%d misses +%d, want +2 +0 (Q2 was the victim)",
			m.Hits.Value()-hits, m.Misses.Value()-misses)
	}
	mustLoad("2014Q2")
	if m.Misses.Value() != misses+1 {
		t.Errorf("evicted Q2 reload was not a miss")
	}
}

func TestRegistrySaveThenServe(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir, RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Quarters(); len(got) != 0 {
		t.Fatalf("fresh store not empty: %v", got)
	}
	a := quarterAnalysis(t, 10)
	if err := reg.Save("2015Q1", a); err != nil {
		t.Fatal(err)
	}
	if !reg.Has("2015Q1") {
		t.Fatal("saved quarter not registered")
	}
	got, err := reg.Load("2015Q1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Signals) != len(a.Signals) {
		t.Errorf("signals %d vs %d", len(got.Signals), len(a.Signals))
	}
	// A second registry over the same dir sees it too (discovery).
	reg2, err := OpenRegistry(dir, RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reg2.Has("2015Q1") {
		t.Error("second registry does not discover the saved quarter")
	}
}

func TestRegistryTimeline(t *testing.T) {
	dir := tempStore(t, 4)
	reg, err := OpenRegistry(dir, RegistryOptions{MaxOpen: 2})
	if err != nil {
		t.Fatal(err)
	}
	labels, traj, err := reg.Timeline("ASPIRIN+WARFARIN")
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 4 {
		t.Fatalf("labels = %v", labels)
	}
	if traj == nil {
		t.Fatal("no trajectory for the planted combination")
	}
	if traj.Quarters() != 4 {
		t.Errorf("signaled in %d quarters, want 4", traj.Quarters())
	}
	if c := traj.Classify(); c != trend.Persistent {
		t.Errorf("class = %v, want persistent", c)
	}
	// Support ramps with the fixture (8, 12, 16, 20).
	for i := 1; i < len(traj.Points); i++ {
		if traj.Points[i].Support <= traj.Points[i-1].Support {
			t.Errorf("support not ramping: %+v", traj.Points)
			break
		}
	}
	if _, missing, err := reg.Timeline("NOPE+NADA"); err != nil || missing != nil {
		t.Errorf("absent key: traj=%v err=%v", missing, err)
	}
}

// TestIsLatestTrend: the assembly TrendAnalysis returns is the latest
// until a write makes the next call assemble anew, and a replaced one
// is never the latest again.
func TestIsLatestTrend(t *testing.T) {
	reg, err := OpenRegistry(tempStore(t, 2), RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reg.IsLatestTrend(nil) {
		t.Error("nil is the latest assembly before any was built")
	}
	first, err := reg.TrendAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := reg.TrendAnalysis(); again != first || !reg.IsLatestTrend(first) {
		t.Fatal("an unchanged store did not keep its assembly")
	}
	if err := reg.Save("2014Q3", quarterAnalysis(t, 16)); err != nil {
		t.Fatal(err)
	}
	// Invalidated but not rebuilt: still the latest one built.
	if !reg.IsLatestTrend(first) {
		t.Error("the last assembly built stopped being the latest before a new one was built")
	}
	second, err := reg.TrendAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if second == first || !reg.IsLatestTrend(second) || reg.IsLatestTrend(first) {
		t.Errorf("after a rebuild: latest(first)=%v latest(second)=%v", reg.IsLatestTrend(first), reg.IsLatestTrend(second))
	}
}

// TestRegistryTracerRecordsLoadNotMine: a cold load decodes the
// quarter once (the load histogram counts it), a warm one not at all,
// and neither runs the miner: the loads' trace holds no pipeline
// stage span.
func TestRegistryTracerRecordsLoadNotMine(t *testing.T) {
	dir := tempStore(t, 1)
	m := obs.NewStoreMetrics(obs.NewRegistry())
	reg, err := OpenRegistry(dir, RegistryOptions{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("serve")
	ctx, root := tr.StartRoot(context.Background(), "GET /")
	for i := 0; i < 2; i++ {
		if _, err := reg.LoadContext(ctx, "2014Q1"); err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	if got := m.LoadSeconds.Count(); got != 1 {
		t.Fatalf("decodes = %d, want 1", got)
	}
	for _, s := range tr.Snapshot().Spans {
		if strings.HasPrefix(s.Name, obs.StageSpanPrefix) {
			t.Fatalf("serving a warm quarter ran pipeline stage %s", s.Name)
		}
	}
}

func TestRegistryCorruptFileTypedError(t *testing.T) {
	dir := tempStore(t, 1)
	// Damage the snapshot on disk.
	path := filepath.Join(dir, "2014Q1"+Ext)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x55
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := OpenRegistry(dir, RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("2014Q1"); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
	// Repair the file: the failed entry must not be cached.
	data[len(data)/3] ^= 0x55
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Load("2014Q1"); err != nil {
		t.Errorf("repaired snapshot still failing: %v", err)
	}
}

func TestRegistryConcurrentLoads(t *testing.T) {
	dir := tempStore(t, 3)
	reg, err := OpenRegistry(dir, RegistryOptions{MaxOpen: 2})
	if err != nil {
		t.Fatal(err)
	}
	labels := reg.Quarters()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := reg.Load(labels[i%len(labels)]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// spanNames extracts the names of a trace's spans, insertion order.
func spanNames(rec obs.TraceRecord) []string {
	out := make([]string, len(rec.Spans))
	for i, s := range rec.Spans {
		out[i] = s.Name
	}
	return out
}

// TestLoadContextSpans is the acceptance check for store-side span
// propagation: a cold load produces store_load{cache=lru_miss} with a
// snapshot_decode child; the warm load produces store_load{cache=lru_hit}
// and no decode.
func TestLoadContextSpans(t *testing.T) {
	dir := tempStore(t, 1)
	reg, err := OpenRegistry(dir, RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	runLoad := func(id string) obs.TraceRecord {
		tr := obs.NewTrace(id)
		ctx, root := tr.StartRoot(context.Background(), "test "+id)
		if _, err := reg.LoadContext(ctx, "2014Q1"); err != nil {
			t.Fatal(err)
		}
		root.End()
		return tr.Snapshot()
	}

	cold := runLoad("cold")
	byName := map[string]obs.SpanRecord{}
	for _, s := range cold.Spans {
		byName[s.Name] = s
	}
	load, ok := byName[SpanLoad]
	if !ok {
		t.Fatalf("cold trace missing %s span: %v", SpanLoad, spanNames(cold))
	}
	if load.Attrs["cache"] != "lru_miss" || load.Attrs["quarter"] != "2014Q1" {
		t.Errorf("cold load attrs = %v", load.Attrs)
	}
	dec, ok := byName[SpanDecode]
	if !ok {
		t.Fatalf("cold trace missing %s span: %v", SpanDecode, spanNames(cold))
	}
	if dec.Parent != load.ID {
		t.Errorf("decode parent = %d, want load %d", dec.Parent, load.ID)
	}
	if dec.Attrs["bytes"] == "" || dec.Attrs["signals"] == "" {
		t.Errorf("decode attrs = %v", dec.Attrs)
	}

	warm := runLoad("warm")
	names := spanNames(warm)
	var warmLoad *obs.SpanRecord
	for i, s := range warm.Spans {
		if s.Name == SpanDecode {
			t.Errorf("warm load decoded again: %v", names)
		}
		if s.Name == SpanLoad {
			warmLoad = &warm.Spans[i]
		}
	}
	if warmLoad == nil {
		t.Fatalf("warm trace missing %s span: %v", SpanLoad, names)
	}
	if warmLoad.Attrs["cache"] != "lru_hit" {
		t.Errorf("warm load attrs = %v", warmLoad.Attrs)
	}
}

// TestTimelineContextSpans: cross-quarter assembly opens a
// trend_assemble span with one store_load child per quarter.
func TestTimelineContextSpans(t *testing.T) {
	dir := tempStore(t, 3)
	reg, err := OpenRegistry(dir, RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("tl")
	ctx, root := tr.StartRoot(context.Background(), "GET /api/timeline/")
	if _, _, err := reg.TimelineContext(ctx, "ASPIRIN+WARFARIN"); err != nil {
		t.Fatal(err)
	}
	root.End()

	rec := tr.Snapshot()
	var assembleID = -2
	loads := 0
	for _, s := range rec.Spans {
		if s.Name == SpanAssemble {
			assembleID = s.ID
			if s.Attrs["quarters"] != "3" {
				t.Errorf("assemble quarters attr = %v", s.Attrs)
			}
		}
	}
	if assembleID == -2 {
		t.Fatalf("no %s span: %v", SpanAssemble, spanNames(rec))
	}
	for _, s := range rec.Spans {
		if s.Name == SpanLoad {
			loads++
			if s.Parent != assembleID {
				t.Errorf("load span parented to %d, want assemble %d", s.Parent, assembleID)
			}
		}
	}
	if loads != 3 {
		t.Errorf("store_load spans = %d, want 3", loads)
	}
}

// TestRefreshContextSpan: the rescan is visible as store_rescan.
func TestRefreshContextSpan(t *testing.T) {
	dir := tempStore(t, 2)
	reg, err := OpenRegistry(dir, RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("rescan")
	ctx, root := tr.StartRoot(context.Background(), "GET /api/quarters")
	if err := reg.RefreshContext(ctx); err != nil {
		t.Fatal(err)
	}
	root.End()
	rec := tr.Snapshot()
	found := false
	for _, s := range rec.Spans {
		if s.Name == SpanRescan {
			found = true
			if s.Attrs["quarters"] != "2" {
				t.Errorf("rescan attrs = %v", s.Attrs)
			}
		}
	}
	if !found {
		t.Fatalf("no %s span: %v", SpanRescan, spanNames(rec))
	}
}

// TestLoadContextWithoutSpanStillWorks: span-free contexts take the
// same path (the production default when tracing is off).
func TestLoadContextWithoutSpanStillWorks(t *testing.T) {
	dir := tempStore(t, 1)
	reg, err := OpenRegistry(dir, RegistryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := reg.LoadContext(context.Background(), "2014Q1")
	if err != nil || len(a.Signals) == 0 {
		t.Fatalf("plain context load: %v", err)
	}
}
