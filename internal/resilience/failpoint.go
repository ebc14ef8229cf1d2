package resilience

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Failpoints are named fault-injection sites. A site is a single call
//
//	if err := resilience.Inject("store/decode"); err != nil { ... }
//
// compiled into a production path. With nothing armed the call is one
// atomic load — cheap enough for hot paths. Arming happens through a
// spec string (flag -failpoints or env MARAS_FAILPOINTS):
//
//	site=action[;site=action...]
//
//	action := error | error(p) | error(p,msg)     inject an error
//	        | delay(d) | delay(d,p)               sleep d (e.g. 50ms)
//	        | panic | panic(p)                    panic at the site
//	        | off                                 disarm the site
//
// p is the trigger probability in (0,1]; omitted means 1 (fire on
// every evaluation — the deterministic trigger). Any action may carry
// a "*N" suffix limiting it to the first N triggers:
//
//	store/decode=error*1;store/load=delay(50ms,0.2)
//
// injects exactly one decode error and delays 20% of loads by 50ms.
// The probabilistic trigger draws from a seeded source (Seed) so a
// chaos run is reproducible.

// FailpointEnv is the environment variable EnableFromEnv reads.
const FailpointEnv = "MARAS_FAILPOINTS"

// Well-known failpoint site names. Sites live where Inject is called;
// these constants exist so specs, tests, and docs agree on spelling.
const (
	FPDecode       = "store/decode"  // snapshot decode path (corruption)
	FPLoad         = "store/load"    // registry disk-load path (slow/failing I/O)
	FPMine         = "core/mine"     // quarter mining path (pipeline stall)
	FPReplicaFetch = "replica/fetch" // replica snapshot fetch from a peer
	FPReplicaDiff  = "replica/diff"  // replica inventory diff against a peer
)

// fpAction is what an armed site does when its trigger fires.
type fpAction int

const (
	fpError fpAction = iota
	fpDelay
	fpPanic
)

// failpoint is one armed site.
type failpoint struct {
	action fpAction
	prob   float64       // trigger probability, (0,1]
	delay  time.Duration // fpDelay only
	msg    string        // fpError message, optional
	budget int64         // remaining triggers; negative = unlimited

	evals    int64 // evaluations (Inject calls) since armed
	triggers int64 // times the trigger fired
}

// fpState is the global failpoint table. armed is the fast-path gate:
// with no sites armed, Inject performs a single atomic load.
var fpState struct {
	armed atomic.Bool
	mu    sync.Mutex
	sites map[string]*failpoint
	rng   *rand.Rand
}

func init() {
	fpState.sites = map[string]*failpoint{}
	fpState.rng = rand.New(rand.NewSource(1))
}

// Seed reseeds the probabilistic trigger source so chaos runs are
// reproducible.
func Seed(seed int64) {
	fpState.mu.Lock()
	defer fpState.mu.Unlock()
	fpState.rng = rand.New(rand.NewSource(seed))
}

// Enable parses a failpoint spec and arms the named sites, adding to
// (or overriding) whatever is already armed. An empty spec is a no-op.
func Enable(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	parsed := map[string]*failpoint{}
	disarm := map[string]bool{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, action, ok := strings.Cut(part, "=")
		site = strings.TrimSpace(site)
		if !ok || site == "" {
			return fmt.Errorf("resilience: bad failpoint %q (want site=action)", part)
		}
		if strings.TrimSpace(action) == "off" {
			disarm[site] = true
			continue
		}
		fp, err := parseAction(strings.TrimSpace(action))
		if err != nil {
			return fmt.Errorf("resilience: failpoint %s: %w", site, err)
		}
		parsed[site] = fp
	}
	fpState.mu.Lock()
	defer fpState.mu.Unlock()
	for site := range disarm {
		delete(fpState.sites, site)
	}
	for site, fp := range parsed {
		fpState.sites[site] = fp
	}
	fpState.armed.Store(len(fpState.sites) > 0)
	return nil
}

// EnableFromEnv arms failpoints from MARAS_FAILPOINTS, returning the
// spec it applied ("" when unset). Binaries call this once at startup;
// tests arm explicitly with Enable so an exported environment cannot
// perturb unrelated packages.
func EnableFromEnv() (string, error) {
	spec := os.Getenv(FailpointEnv)
	if spec == "" {
		return "", nil
	}
	return spec, Enable(spec)
}

// DisableAll disarms every site (tests pair Enable with a deferred
// DisableAll so failpoints never leak across tests).
func DisableAll() {
	fpState.mu.Lock()
	defer fpState.mu.Unlock()
	fpState.sites = map[string]*failpoint{}
	fpState.armed.Store(false)
}

// parseAction parses one action term: kind[(args)][*N].
func parseAction(s string) (*failpoint, error) {
	fp := &failpoint{prob: 1, budget: -1}
	if i := strings.LastIndex(s, "*"); i >= 0 {
		n, err := strconv.ParseInt(strings.TrimSpace(s[i+1:]), 10, 64)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad trigger budget %q", s[i+1:])
		}
		fp.budget = n
		s = strings.TrimSpace(s[:i])
	}
	kind, args := s, ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return nil, fmt.Errorf("unbalanced parens in %q", s)
		}
		kind, args = s[:i], s[i+1:len(s)-1]
	}
	var fields []string
	if args != "" {
		fields = strings.Split(args, ",")
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
	}
	parseProb := func(f string) error {
		p, err := strconv.ParseFloat(f, 64)
		// Written so that NaN, which fails every comparison, fails it.
		if err != nil || !(p > 0 && p <= 1) {
			return fmt.Errorf("bad probability %q (want (0,1])", f)
		}
		fp.prob = p
		return nil
	}
	switch kind {
	case "error":
		fp.action = fpError
		if len(fields) > 2 {
			return nil, fmt.Errorf("error takes at most (prob,msg), got %q", args)
		}
		if len(fields) >= 1 {
			if err := parseProb(fields[0]); err != nil {
				return nil, err
			}
		}
		if len(fields) == 2 {
			fp.msg = fields[1]
		}
	case "delay":
		fp.action = fpDelay
		if len(fields) < 1 || len(fields) > 2 {
			return nil, fmt.Errorf("delay takes (duration[,prob]), got %q", args)
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad delay duration %q", fields[0])
		}
		fp.delay = d
		if len(fields) == 2 {
			if err := parseProb(fields[1]); err != nil {
				return nil, err
			}
		}
	case "panic":
		fp.action = fpPanic
		if len(fields) > 1 {
			return nil, fmt.Errorf("panic takes at most (prob), got %q", args)
		}
		if len(fields) == 1 {
			if err := parseProb(fields[0]); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown action %q (want error|delay|panic|off)", kind)
	}
	return fp, nil
}

// Inject evaluates the named failpoint site. Disarmed (the production
// default) it returns nil after a single atomic load. Armed, it fires
// per the site's action: an error return (the caller decides what the
// error means at that site), a sleep, or a panic.
func Inject(name string) error {
	if !fpState.armed.Load() {
		return nil
	}
	fpState.mu.Lock()
	fp := fpState.sites[name]
	if fp == nil {
		fpState.mu.Unlock()
		return nil
	}
	fp.evals++
	if fp.budget == 0 || (fp.prob < 1 && fpState.rng.Float64() >= fp.prob) {
		fpState.mu.Unlock()
		return nil
	}
	if fp.budget > 0 {
		fp.budget--
	}
	fp.triggers++
	action, delay, msg := fp.action, fp.delay, fp.msg
	fpState.mu.Unlock()

	switch action {
	case fpDelay:
		time.Sleep(delay)
		return nil
	case fpPanic:
		panic(fmt.Sprintf("resilience: failpoint %s: injected panic", name))
	default:
		if msg == "" {
			msg = "injected error"
		}
		return fmt.Errorf("%w: %s: %s", ErrInjected, name, msg)
	}
}

// FailpointStat reports one armed site's activity.
type FailpointStat struct {
	Site     string `json:"site"`
	Evals    int64  `json:"evals"`
	Triggers int64  `json:"triggers"`
}

// Stats returns per-site evaluation and trigger counts for every armed
// site, sorted by site name — the chaos bench records these so a fault
// mix is auditable in the artifact.
func Stats() []FailpointStat {
	fpState.mu.Lock()
	defer fpState.mu.Unlock()
	out := make([]FailpointStat, 0, len(fpState.sites))
	for name, fp := range fpState.sites {
		out = append(out, FailpointStat{Site: name, Evals: fp.evals, Triggers: fp.triggers})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}
