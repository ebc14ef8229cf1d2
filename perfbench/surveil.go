package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"maras/internal/knowledge"
	"maras/internal/store"
)

// surveilQuarters is twice the registry's LRU, so quarter requests
// spread over the store keep evicting and decoding.
const surveilQuarters = 2 * store.DefaultMaxOpen

// surveilPublishes is how many pre-mined quarters are published into
// the store during one load phase, evenly spaced: one every eight
// seconds of a 40-second run.
const surveilPublishes = 4

// surveilPollEvery is how many reviews a session makes per
// /api/quarters poll. The UI polls nothing, so this rate is an
// assumption: rare enough to leave the poll (which rescans the store
// directory) about 2% of the requests, often enough that a session
// lists a published quarter well within a second.
const surveilPollEvery = 10

// surveilState is what the sessions of one surveil-cold phase share:
// the quarters the server is known to hold, in label order. Published
// quarters join once an /api/quarters poll lists them.
type surveilState struct {
	mu        sync.Mutex
	known     []quarter
	pending   map[string]quarter // published, not yet listed by the server
	baseCount int
}

func newSurveilState(set *storeSet) *surveilState {
	return &surveilState{
		known:     append([]quarter{}, set.base...),
		pending:   map[string]quarter{},
		baseCount: len(set.base),
	}
}

// published notes a quarter written into the store directory.
func (st *surveilState) published(q quarter) {
	st.mu.Lock()
	st.pending[q.label] = q
	st.mu.Unlock()
}

// listed folds an /api/quarters reply into the known set.
func (st *surveilState) listed(labels []string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, l := range labels {
		if q, ok := st.pending[l]; ok {
			delete(st.pending, l)
			st.known = append(st.known, q)
		}
	}
}

// review plans one signal review, made of what the server's UI shows:
// the signal page of a uniformly drawn quarter and a rank among its top
// browseTopRanks, the two images that page embeds (zoomed glyph and bar
// chart), then the cross-quarter context of the same signal: its
// combination's timeline, and the drift of its quarter against the
// previous one (the figure each row of the /quarters page shows). Every
// surveilPollEvery-th review starts with an /api/quarters poll.
func (st *surveilState) review(rng *rand.Rand, n int) []request {
	st.mu.Lock()
	known := st.known
	st.mu.Unlock()
	var out []request
	if n%surveilPollEvery == 0 {
		out = append(out, jsonRequest("quarters", "/api/quarters", func(v struct {
			Quarters []string `json:"quarters"`
		}) error {
			if len(v.Quarters) < st.baseCount {
				return fmt.Errorf("%d quarters listed, want >= %d", len(v.Quarters), st.baseCount)
			}
			st.listed(v.Quarters)
			return nil
		}))
	}
	i := rng.Intn(len(known))
	q := known[i]
	r := 1 + rng.Intn(min(browseTopRanks, len(q.analysis.Signals)))
	rank := strconv.Itoa(r)
	prefix := "/q/" + q.label
	from, to := known[max(i, 1)-1].label, known[max(i, 1)].label
	return append(out,
		htmlRequest("cold_signal", prefix+"/signal/"+rank, "<h1>#"+rank+" "),
		svgRequest("cold_glyph_zoom", prefix+"/glyph/"+rank+"?zoom=1"),
		svgRequest("cold_barchart", prefix+"/barchart/"+rank),
		timelineRequest("cold_timeline", knowledge.DrugKey(q.analysis.Signals[r-1].Drugs), st.baseCount),
		jsonRequest("drift", "/api/drift/"+from+"/"+to, func(v struct {
			From string `json:"from"`
			To   string `json:"to"`
		}) error {
			if v.From != from || v.To != to {
				return fmt.Errorf("drift %s→%s, want %s→%s", v.From, v.To, from, to)
			}
			return nil
		}),
	)
}

// planners returns one request stream per session, review after
// review, each from its own generator seeded by the workload seed and
// the session.
func (st *surveilState) planners(seed int64) []func() request {
	out := make([]func() request, sessions)
	for s := range out {
		rng := rand.New(rand.NewSource(seed*100 + 50 + int64(s)))
		n := 0
		out[s] = walker(func() []request {
			n++
			return st.review(rng, n-1)
		})
	}
	return out
}

// publisher writes the quarters to publish into the store directory at
// even intervals over runFor, as maras-mine -snapshot-out would, and
// returns each write's duration in ms once done.
func publisher(dir string, qs []quarter, runFor time.Duration, st *surveilState, spans *spanLog) func() ([]float64, error) {
	done := make(chan struct{})
	var (
		times []float64
		err   error
	)
	go func() {
		defer close(done)
		start := time.Now()
		for i, q := range qs {
			time.Sleep(time.Until(start.Add(runFor * time.Duration(i+1) / time.Duration(len(qs)+1))))
			path := filepath.Join(dir, q.label+store.Ext)
			var werr error
			d := spans.time(spans.newTrace(), 0, "store.WriteFile", func() { werr = store.WriteFile(path, q.label, q.analysis) })
			if werr != nil {
				err = werr
				return
			}
			times = append(times, ms(d))
			st.published(q)
		}
	}()
	return func() ([]float64, error) { <-done; return times, err }
}

// surveilPhase warms the server up with the surveillance sessions, then
// runs the measured phase with publishing alongside.
func surveilPhase(srv *serverProc, set *storeSet, qs []quarter, runFor time.Duration, seed int64, spans *spanLog) (*loadResult, map[string]float64, []float64, error) {
	st := newSurveilState(set)
	t, planners := newTarget(srv.base), st.planners(seed)
	if err := warmUp(t, planners); err != nil {
		return nil, nil, nil, err
	}
	wait := publisher(set.dir, qs, runFor, st, spans)
	res, layers, err := measurePhase(srv, t, func() *loadResult { return runLoad(t, planners, runFor, spans) })
	pubs, perr := wait()
	if err != nil {
		return nil, nil, nil, err
	}
	if perr != nil {
		return nil, nil, nil, perr
	}
	return res, layers, pubs, nil
}

// runSurveil is the surveil-cold workload. Its traced run goes on to
// measure the warm interactive layers (see browseLayers).
func runSurveil(c *config) (*outcome, error) {
	o := newOutcome()
	set, srv, err := setupServing(c, o, surveilQuarters, surveilPublishes)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	var spans *spanLog
	if c.trace {
		spans = newSpanLog()
		if err := storeLayers(o, spans, set); err != nil {
			return nil, err
		}
	}
	res, layers, pubs, err := surveilPhase(srv, set, set.published, c.seconds, c.seed, spans)
	if err != nil {
		return nil, err
	}
	countLoad(o, res, layers)
	layers["publish.count"] = float64(len(pubs))
	layers["publish.ms"] = median(pubs)
	if !c.trace {
		if err := servingE2E(o, srv, res); err != nil {
			return nil, err
		}
		for k, v := range layers {
			o.named[k] = v
		}
		return o, nil
	}
	for k, v := range layers {
		o.layers[k] = v
	}
	o.layers["loadgen.cpu_s"] = res.cpu
	tr := res.latencies(func(s sample) bool { return s.traced })
	un := res.latencies(func(s sample) bool { return !s.traced })
	o.layers["trace.overhead_ratio"] = median(tr)/median(un) - 1
	if err := browseLayers(c, o, set, srv, spans); err != nil {
		return nil, err
	}
	routeLayers(o, spans)
	o.spans = spans
	return o, nil
}

// storeLayers measures the store's layers in-process over the base
// quarter files: snapshot decode through store.Open, the cross-quarter
// trend assembly through Registry.TrendAnalysis after a Refresh, and a
// drift diff over the assembled trend.
func storeLayers(o *outcome, spans *spanLog, set *storeSet) error {
	tr := spans.newTrace()
	var decodes, sizes []float64
	for round := 0; round < 3; round++ {
		for _, q := range set.base {
			path := filepath.Join(set.dir, q.label+store.Ext)
			var err error
			d := spans.time(tr, 0, "store.Open", func() { _, err = store.Open(path) })
			if err != nil {
				return err
			}
			decodes = append(decodes, ms(d))
			if round == 0 {
				fi, err := os.Stat(path)
				if err != nil {
					return err
				}
				sizes = append(sizes, float64(fi.Size()))
			}
		}
	}
	o.layers["codec.decode_ms"] = median(decodes)
	var total float64
	for _, s := range sizes {
		total += s
	}
	o.layers["codec.bytes_per_quarter"] = total / float64(len(sizes))

	var assembles, drifts []float64
	for round := 0; round < 3; round++ {
		reg, err := store.OpenRegistry(set.dir, store.RegistryOptions{})
		if err != nil {
			return err
		}
		if err := reg.Refresh(); err != nil {
			return err
		}
		d := spans.time(tr, 0, "Registry.TrendAnalysis", func() { _, err = reg.TrendAnalysis() })
		if err != nil {
			return err
		}
		assembles = append(assembles, ms(d))
		labels := reg.Quarters()
		sort.Strings(labels)
		for i := 0; i+1 < len(labels); i++ {
			d := spans.time(tr, 0, "Registry.Drift", func() { _, err = reg.Drift(labels[i], labels[i+1]) })
			if err != nil {
				return err
			}
			drifts = append(drifts, ms(d))
		}
	}
	o.layers["trend.assemble_ms"] = median(assembles)
	o.layers["audit.drift_ms"] = median(drifts)
	return nil
}
