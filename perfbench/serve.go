package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// sessions is the number of concurrent closed-loop clients; each waits
// for a reply before sending its next request.
const sessions = 2

// servingSetups is how many times an untraced serving run repeats its
// set-up (generate, mine, write the store, start the server to
// /readyz 200) to report the median.
const servingSetups = 3

// request is one planned HTTP request and how to validate its reply.
type request struct {
	route string // metric label, e.g. "glyph_zoom"
	path  string
	ctype string             // required Content-Type prefix
	check func([]byte) error // body validation; nil accepts any body
}

// walker turns a planner of request sequences (one analyst's path
// through the UI) into a request stream that sends them in order,
// planning the next sequence once the last one is used up.
func walker(plan func() []request) func() request {
	var queue []request
	return func() request {
		if len(queue) == 0 {
			queue = plan()
		}
		rq := queue[0]
		queue = queue[1:]
		return rq
	}
}

// sample is one completed request as the client saw it.
type sample struct {
	route  string
	ms     float64
	ok     bool
	traced bool
	at     time.Duration // completion, from the start of the phase
}

// loadResult is one closed-loop phase.
type loadResult struct {
	samples  []sample // one per request
	elapsed  time.Duration
	failures []string
	cpu      float64   // the load generator's own CPU seconds
	rss      []float64 // the server's resident set in MiB, sampled
}

func (r *loadResult) failed() int {
	n := 0
	for _, s := range r.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// latencies returns the latencies in ms of the samples that pass keep.
func (r *loadResult) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if keep(s) {
			out = append(out, s.ms)
		}
	}
	return out
}

func (r *loadResult) reqPerSec() float64 {
	return float64(len(r.samples)) / r.elapsed.Seconds()
}

func all(sample) bool { return true }

// windowRates returns the requests completed in each whole second of
// the phase, which shows whether the server had reached a steady state.
func (r *loadResult) windowRates() []float64 {
	rates := make([]float64, int(r.elapsed/time.Second))
	for _, s := range r.samples {
		if i := int(s.at / time.Second); i < len(rates) {
			rates[i]++
		}
	}
	return rates
}

// target is one server as the load generator sees it: an HTTP client
// and the bodies already validated per path. The server's replies are
// deterministic for an unchanged store, so a body byte-identical to one
// that passed its check passes again without re-parsing, which keeps
// the generator's own CPU cost small next to the server's.
type target struct {
	c    *http.Client
	base string
	seen sync.Map // path -> []byte that passed the path's check
}

func newTarget(base string) *target {
	return &target{
		base: base,
		c: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: sessions,
				MaxConnsPerHost:     sessions,
				IdleConnTimeout:     time.Minute,
			},
		},
	}
}

// do sends one request and validates the reply, reading the body into
// buf (reused across one session's requests). The latency covers
// sending the request through reading the whole body; validation
// happens after the clock stops.
func (t *target) do(ctx context.Context, rq request, buf *bytes.Buffer) (time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+rq.path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := t.c.Do(req)
	if err != nil {
		return time.Since(start), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	body := buf.Bytes()
	if err != nil {
		return d, fmt.Errorf("%s: reading body: %w", rq.path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("%s: status %d", rq.path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, rq.ctype) {
		return d, fmt.Errorf("%s: content type %q, want %s", rq.path, ct, rq.ctype)
	}
	if prev, ok := t.seen.Load(rq.path); ok && bytes.Equal(prev.([]byte), body) {
		return d, nil
	}
	if rq.check != nil {
		if err := rq.check(body); err != nil {
			return d, fmt.Errorf("%s: %w", rq.path, err)
		}
	}
	t.seen.Store(rq.path, bytes.Clone(body))
	return d, nil
}

// runLoad drives one closed-loop session per planner for runFor: each
// sends a request, waits for the whole reply, and sends the next. With
// a span log, every other request of each session is recorded as a
// span, so traced and untraced requests interleave under the same
// conditions and their difference is the tracing overhead.
func runLoad(t *target, planners []func() request, runFor time.Duration, spans *spanLog) *loadResult {
	ctx, cancel := context.WithTimeout(context.Background(), runFor+time.Minute)
	defer cancel()
	res := &loadResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0 := selfCPUSeconds()
	start := time.Now()
	deadline := start.Add(runFor)
	for _, next := range planners {
		next := next
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				local []sample
				fails []string
				buf   bytes.Buffer
			)
			for time.Now().Before(deadline) {
				rq := next()
				t0 := time.Now()
				d, err := t.do(ctx, rq, &buf)
				traced := spans != nil && len(local)%2 == 0
				if traced {
					spans.add(spans.newTrace(), 0, "http:"+rq.route, t0, d, err == nil)
				}
				local = append(local, sample{route: rq.route, ms: ms(d), ok: err == nil, traced: traced, at: time.Since(start)})
				if err != nil && len(fails) < 5 {
					fails = append(fails, err.Error())
				}
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.failures = append(res.failures, fails...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = selfCPUSeconds() - cpu0
	return res
}

// alternate runs the sessions against a and b in turns of one second,
// runFor in total for each, so the slow spells of a shared machine fall
// on both alike. The span log records requests to a only.
func alternate(a, b *target, pa, pb []func() request, runFor time.Duration, spans *spanLog) (ra, rb *loadResult) {
	ra, rb = &loadResult{}, &loadResult{}
	for done := time.Duration(0); done < runFor; done += time.Second {
		ra.add(runLoad(a, pa, time.Second, spans))
		rb.add(runLoad(b, pb, time.Second, nil))
	}
	return ra, rb
}

// add appends another phase's requests as if it ran right after r.
func (r *loadResult) add(o *loadResult) {
	for _, s := range o.samples {
		s.at += r.elapsed
		r.samples = append(r.samples, s)
	}
	r.elapsed += o.elapsed
	r.cpu += o.cpu
	r.failures = append(r.failures, o.failures...)
}

// warm sends requests one at a time, untimed, failing on the first
// invalid reply.
func warm(t *target, reqs []request) error {
	var buf bytes.Buffer
	for _, rq := range reqs {
		if _, err := t.do(context.Background(), rq, &buf); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// setupServing repeats the serving set-up — generate and mine the
// store quarters, write the store, start maras-server and wait for
// /readyz — and keeps the last server running. Every repetition must
// write byte-identical snapshots.
func setupServing(c *config, o *outcome, base, extra int) (*storeSet, *serverProc, error) {
	var (
		set     *storeSet
		srv     *serverProc
		setups  []float64
		digests []string
	)
	n := servingSetups
	if c.trace {
		n = 1 // a traced run reports no setup_s
	}
	for k := 0; k < n; k++ {
		dir := filepath.Join(c.work, fmt.Sprintf("store-%d", k))
		start := time.Now()
		s, err := buildStore(dir, c.seed, base, extra)
		if err != nil {
			return nil, nil, err
		}
		p, err := startServer(c.server, dir, filepath.Join(c.work, fmt.Sprintf("server-%d.log", k)), nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		d, err := storeDigest(dir)
		if err != nil {
			p.stop()
			return nil, nil, err
		}
		digests = append(digests, d)
		if k < n-1 {
			p.stop()
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
			continue
		}
		set, srv = s, p
	}
	for _, d := range digests[1:] {
		if d != digests[0] {
			o.fail(fmt.Sprintf("set-ups of one seed wrote different snapshots: %v", digests))
			break
		}
	}
	o.e2e["setup_s"] = median(setups)
	o.named["setup_s"] = median(setups)
	o.info["store_digest"] = digests[0]
	o.info["server_flags"] = strings.Join(append([]string{"-store", "<store>", "-addr", "127.0.0.1:<port>"}, srv.flags[4:]...), " ")
	var sizes []int
	for _, q := range append(append([]quarter{}, set.base...), set.published...) {
		sizes = append(sizes, q.analysis.Stats.Reports)
	}
	o.info["quarter_reports"] = sizes
	o.info["quarter_count"] = len(set.base)
	o.info["quarters_published"] = len(set.published)
	o.info["sample_reports"] = storeReports
	o.info["population_reports"] = populationReports
	o.info["sessions"] = sessions
	return set, srv, nil
}

// servingE2E fills the end-to-end and descriptive metrics of a serving
// run from its untraced load phase.
func servingE2E(o *outcome, srv *serverProc, res *loadResult) error {
	rss, err := srv.procStatusMB("VmHWM")
	if err != nil {
		return err
	}
	lat := res.latencies(all)
	o.e2e["op_p50_ms"] = quantile(lat, 0.5)
	o.e2e["op_p99_ms"] = quantile(lat, 0.99)
	o.e2e["ops_per_s"] = res.reqPerSec()
	o.e2e["mem_mb"] = median(res.rss)
	o.named["req_per_s"] = res.reqPerSec()
	o.named["req_p50_ms"] = quantile(lat, 0.5)
	o.named["req_p99_ms"] = quantile(lat, 0.99)
	o.named["requests"] = float64(len(lat))
	o.named["server_peak_rss_mb"] = rss
	o.named["server_rss_mb"] = median(res.rss)
	o.named["error_share"] = float64(res.failed()) / float64(len(lat))
	o.named["loadgen.cpu_s"] = res.cpu
	o.info["window_req_per_s"] = res.windowRates()
	return nil
}

// countLoad adds a load phase's requests and failures to the outcome,
// and fails the run if the server shed any request: two closed-loop
// sessions never queue long enough to be shed.
func countLoad(o *outcome, res *loadResult, layers map[string]float64) {
	o.attempted += len(res.samples)
	o.failed += res.failed()
	o.fail(res.failures...)
	if n := layers["shed.total"]; n != 0 {
		o.fail(fmt.Sprintf("server shed %g requests", n))
	}
}

// routeLayers reports per-route client-side latency from the traced
// requests' spans.
func routeLayers(o *outcome, spans *spanLog) {
	for _, r := range routes {
		if d := spans.durations("http:" + r); len(d) > 0 {
			o.layers["route."+r+".p50_ms"] = quantile(d, 0.5)
			o.layers["route."+r+".p99_ms"] = quantile(d, 0.99)
		}
	}
}

// serverLayers turns /metrics deltas over a load phase into the
// store, watch, shed and runtime layer metrics; every ratio comes with
// its base (store.lookups for store.hit_ratio, store.decodes for
// store.decode_ms, watch.evaluations for watch.eval_ms).
func serverLayers(before, after metricsSnapshot) map[string]float64 {
	m := map[string]float64{}
	hits := delta(before, after, "maras_store_cache_hits_total")
	misses := delta(before, after, "maras_store_cache_misses_total")
	m["store.lru_hits"] = hits
	m["store.lru_misses"] = misses
	m["store.lookups"] = hits + misses
	m["store.evictions"] = delta(before, after, "maras_store_evictions_total")
	if hits+misses > 0 {
		m["store.hit_ratio"] = hits / (hits + misses)
	}
	decodes := delta(before, after, "maras_store_snapshot_load_seconds_count")
	m["store.decodes"] = decodes
	if decodes > 0 {
		m["store.decode_ms"] = 1000 * delta(before, after, "maras_store_snapshot_load_seconds_sum") / decodes
	}
	evals := delta(before, after, "maras_watch_evaluations_total")
	m["watch.evaluations"] = evals
	if n := delta(before, after, "maras_watch_eval_seconds_count"); n > 0 {
		m["watch.eval_ms"] = 1000 * delta(before, after, "maras_watch_eval_seconds_sum") / n
	}
	m["shed.total"] = delta(before, after, "maras_shed_total")
	m["runtime.gc_cycles"] = delta(before, after, "go_gc_cycles_total")
	m["server.requests"] = delta(before, after, "http_requests_total")
	return m
}

// warmLoad is how long the sessions run untimed before a measured
// phase, so the server's heap, the LRU and the load generator's body
// cache reach their steady state first.
const warmLoad = 3 * time.Second

// warmUp runs the sessions untimed for warmLoad.
func warmUp(t *target, planners []func() request) error {
	if w := runLoad(t, planners, warmLoad, nil); w.failed() > 0 {
		return fmt.Errorf("warm-up load: %v", w.failures)
	}
	return nil
}

// measurePhase runs load against srv while sampling its resident set,
// scraping /metrics and counting trend assemblies before and after, and
// returns the phase, the server-side deltas and the server's CPU
// seconds.
func measurePhase(srv *serverProc, t *target, load func() *loadResult) (*loadResult, map[string]float64, error) {
	ctx := context.Background()
	before, err := srv.scrape(ctx, t.c)
	if err != nil {
		return nil, nil, err
	}
	asm0, err := srv.assemblies(ctx, t.c)
	if err != nil {
		return nil, nil, err
	}
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	stopRSS := srv.sampleRSS(100 * time.Millisecond)
	res := load()
	res.rss = stopRSS()
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, nil, err
	}
	asm1, err := srv.assemblies(ctx, t.c)
	if err != nil {
		return nil, nil, err
	}
	after, err := srv.scrape(ctx, t.c)
	if err != nil {
		return nil, nil, err
	}
	layers := serverLayers(before, after)
	layers["server.cpu_s"] = cpu1 - cpu0
	layers["trend.assemblies"] = asm1 - asm0
	return res, layers, nil
}

// htmlRequest expects an HTML page holding want.
func htmlRequest(route, path, want string) request {
	return request{route: route, path: path, ctype: "text/html", check: func(b []byte) error {
		if !bytes.Contains(b, []byte(want)) {
			return fmt.Errorf("body lacks %q", want)
		}
		return nil
	}}
}

// svgRequest expects an SVG document.
func svgRequest(route, path string) request {
	return request{route: route, path: path, ctype: "image/svg+xml", check: checkSVG}
}

// jsonRequest expects a JSON body that decodes into a T accepted by
// verify.
func jsonRequest[T any](route, path string, verify func(T) error) request {
	return request{route: route, path: path, ctype: "application/json", check: func(b []byte) error {
		var v T
		if err := json.Unmarshal(b, &v); err != nil {
			return fmt.Errorf("decoding JSON: %w", err)
		}
		return verify(v)
	}}
}

// checkSVG accepts a body whose document root is an <svg> element.
func checkSVG(b []byte) error {
	if !bytes.Contains(b[:min(len(b), 512)], []byte("<svg")) {
		return fmt.Errorf("no <svg root")
	}
	return nil
}
