package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"maras/internal/core"
	"maras/internal/glyph"
	"maras/internal/knowledge"
	"maras/internal/store"
)

// browseQuarters fills exactly the registry's LRU, so after warm-up no
// request decodes a snapshot.
const browseQuarters = store.DefaultMaxOpen

// browseTopRanks bounds the ranks an analyst opens: the first screens
// of the panoramagram.
const browseTopRanks = 50

// browseWalk plans an analyst's path through one quarter: the signal
// list, one signal's page, its glyph, zoomed glyph and bar chart, one
// supporting report, and the combination's cross-quarter timeline.
func browseWalk(rng *rand.Rand, quarters []quarter) []request {
	q := quarters[rng.Intn(len(quarters))]
	sigs := q.analysis.Signals
	r := 1 + rng.Intn(min(browseTopRanks, len(sigs)))
	sig := &sigs[r-1]
	id := sig.ReportIDs[rng.Intn(len(sig.ReportIDs))]
	key := knowledge.DrugKey(sig.Drugs)
	prefix := "/q/" + q.label
	rank := strconv.Itoa(r)
	return []request{
		jsonRequest("api_signals", prefix+"/api/signals", func(v []struct {
			Rank int `json:"rank"`
		}) error {
			if len(v) != len(sigs) || v[0].Rank != 1 || v[len(v)-1].Rank != len(sigs) {
				return fmt.Errorf("got %d signals, want ranks 1..%d", len(v), len(sigs))
			}
			return nil
		}),
		htmlRequest("signal", prefix+"/signal/"+rank, "<h1>#"+rank+" "),
		svgRequest("glyph", prefix+"/glyph/"+rank),
		svgRequest("glyph_zoom", prefix+"/glyph/"+rank+"?zoom=1"),
		svgRequest("barchart", prefix+"/barchart/"+rank),
		htmlRequest("report", prefix+"/report/"+id, "<h1>Report "+id+"</h1>"),
		timelineRequest("timeline", key, len(quarters)),
	}
}

// timelineRequest asks for a combination's trajectory, which must
// cover at least minQuarters stored quarters.
func timelineRequest(route, key string, minQuarters int) request {
	return jsonRequest(route, "/api/timeline/"+url.PathEscape(key), func(v struct {
		Key    string `json:"key"`
		Points []struct {
			Quarter string `json:"quarter"`
		} `json:"points"`
	}) error {
		if v.Key != key || len(v.Points) < minQuarters {
			return fmt.Errorf("timeline of %q over %d quarters, want %q over >= %d", v.Key, len(v.Points), key, minQuarters)
		}
		return nil
	})
}

// browsePlanners returns one request stream per session, walk after
// walk, each drawn from a generator seeded by the workload seed and the
// session.
func browsePlanners(seed int64, quarters []quarter) []func() request {
	out := make([]func() request, sessions)
	for s := range out {
		rng := rand.New(rand.NewSource(seed*100 + int64(s)))
		out[s] = walker(func() []request { return browseWalk(rng, quarters) })
	}
	return out
}

// warmBrowse walks every quarter once, so each is decoded, its route
// handler built and the trend assembled, then runs the browse sessions
// untimed until the server is steady. It returns the target and the
// session planners, which the measured phase continues.
func warmBrowse(quarters []quarter, srv *serverProc, seed int64) (*target, []func() request, error) {
	t := newTarget(srv.base)
	rng := rand.New(rand.NewSource(seed))
	for i := range quarters {
		if err := warm(t, browseWalk(rng, quarters[i:i+1])); err != nil {
			return nil, nil, err
		}
	}
	planners := browsePlanners(seed, quarters)
	if err := warmUp(t, planners); err != nil {
		return nil, nil, err
	}
	return t, planners, nil
}

// browseLayers measures the warm interactive layers, inside the
// surveil-cold traced run. Two sessions walk an analyst's path over
// as many of the store's quarters as the LRU holds, so after warm-up
// nothing is decoded (store.warm_decodes), against the running server
// and, in alternating one-second slices, against a second server over
// the same store started with tracing, wide events, the runtime
// sampler and metrics history off: their difference is the telemetry
// layer. Then the glyph renderers are timed in-process.
func browseLayers(c *config, o *outcome, set *storeSet, srv *serverProc, spans *spanLog) error {
	quarters := set.base[:browseQuarters]
	t, planners, err := warmBrowse(quarters, srv, c.seed)
	if err != nil {
		return err
	}
	off, err := startServer(c.server, set.dir, filepath.Join(c.work, "server-telemetry-off.log"), telemetryOff)
	if err != nil {
		return err
	}
	defer off.stop()
	offT, offPlanners, err := warmBrowse(quarters, off, c.seed)
	if err != nil {
		return err
	}
	var offRes *loadResult
	on, layers, err := measurePhase(srv, t, func() *loadResult {
		var on *loadResult
		// Half the run length each keeps the traced run well inside its
		// time limit.
		on, offRes = alternate(t, offT, planners, offPlanners, c.seconds/2, spans)
		return on
	})
	if err != nil {
		return err
	}
	countLoad(o, on, layers)
	countLoad(o, offRes, nil)
	o.layers["store.warm_decodes"] = layers["store.decodes"]
	o.layers["obs.on_req_per_s"] = on.reqPerSec()
	o.layers["obs.off_req_per_s"] = offRes.reqPerSec()
	o.layers["obs.overhead_req_per_s"] = offRes.reqPerSec() - on.reqPerSec()
	o.layers["obs.overhead_p50_us"] = 1000 * (median(on.latencies(all)) - median(offRes.latencies(all)))
	o.info["telemetry_off_flags"] = strings.Join(telemetryOff, " ")
	return glyphLayers(o, spans, filepath.Join(set.dir, quarters[0].label+store.Ext))
}

// glyphLayers times the three glyph renderers in-process over the top
// signals of one quarter's snapshot, decoded from its file.
func glyphLayers(o *outcome, spans *spanLog, path string) error {
	snap, err := store.Open(path)
	if err != nil {
		return err
	}
	a := snap.Analysis
	dict := a.Dict()
	top := a.Signals[:min(browseTopRanks, len(a.Signals))]
	renderers := []struct {
		metric string
		render func(s *core.Signal) string
	}{
		{"glyph.contextual_us", func(s *core.Signal) string { return glyph.Contextual(s.Cluster, glyph.Options{Dict: dict}) }},
		{"glyph.zoom_us", func(s *core.Signal) string { return glyph.Zoom(s.Cluster, dict) }},
		{"glyph.barchart_us", func(s *core.Signal) string {
			return glyph.BarChart(s.Cluster, glyph.Options{Size: 420, Dict: dict})
		}},
	}
	for _, rd := range renderers {
		var per []float64
		tr := spans.newTrace()
		for round := 0; round < 5; round++ {
			for i := range top {
				var out string
				d := spans.time(tr, 0, rd.metric, func() { out = rd.render(&top[i]) })
				if checkSVG([]byte(out)) != nil {
					o.fail(fmt.Sprintf("%s rendered no SVG for rank %d", rd.metric, top[i].Rank))
				}
				per = append(per, float64(d)/float64(time.Microsecond))
			}
		}
		o.layers[rd.metric] = median(per)
	}
	return nil
}
