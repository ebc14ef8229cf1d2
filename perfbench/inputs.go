package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"maras/internal/core"
	"maras/internal/faers"
	"maras/internal/knowledge"
	"maras/internal/rank"
	"maras/internal/store"
	"maras/internal/synth"
	"maras/internal/watch"
)

// The population every quarter is drawn from. Its drug and reaction
// vocabularies, popularity skew and therapeutic classes are fixed, so
// the seed changes which reports are filed in a quarter but not the
// kind of world they come from: mining cost then varies with the seed
// only as much as sampling makes it, not by a factor of two between
// worlds.
const (
	populationSeed    = 20180416
	populationReports = 16_500
	// mineReports is the generator's default quarter size.
	mineReports = 15_000
	// storeReports is the size of each quarter the server holds.
	storeReports = 4_000
	// minSupport, theta and the exclusiveness-over-confidence ranking
	// are the options maras-mine ships.
	minSupport = 8
	theta      = 0.5
	// firstLabel starts the store's quarter sequence.
	firstLabel = "2014Q1"
	// watchlists is how many watchlists the store is seeded with, so
	// every quarter load gives the watch evaluator real work.
	watchlists = 200
)

// population generates the shared report population.
func population() ([]faers.Report, *synth.GroundTruth, error) {
	cfg := synth.DefaultConfig(firstLabel, populationSeed)
	cfg.Reports = populationReports
	q, gt, err := synth.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	return q.Reports(), gt, nil
}

// sampleReports draws n reports of pool without replacement, keeping the
// pool's order, from a generator seeded with seed.
func sampleReports(pool []faers.Report, n int, seed int64) []faers.Report {
	idx := rand.New(rand.NewSource(seed)).Perm(len(pool))[:n]
	sort.Ints(idx)
	out := make([]faers.Report, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// mineOptions are the options maras-mine runs with.
func mineOptions() core.Options {
	opts := core.NewOptions()
	opts.MinSupport = minSupport
	opts.Theta = theta
	opts.Method = rank.ByExclusivenessConf
	opts.TopK = 0
	return opts
}

// quarterSeed derives the sampling seed of the i-th store quarter.
func quarterSeed(seed int64, i int) int64 { return seed*1_000 + int64(i) + 1 }

// quarter is one mined store quarter.
type quarter struct {
	label    string
	analysis *core.Analysis
}

// storeSet is what a serving workload's set-up produces: the quarters
// present when the server starts, the ones published while it runs,
// and the directory the server serves.
type storeSet struct {
	dir       string
	base      []quarter
	published []quarter
}

// buildStore generates and mines base+extra quarters of storeReports
// reports each, writes the first base of them into dir with
// store.WriteFile (the write maras-mine -snapshot-out makes) together
// with a watchlist file, and keeps the rest in memory for publishing.
func buildStore(dir string, seed int64, base, extra int) (*storeSet, error) {
	pool, _, err := population()
	if err != nil {
		return nil, err
	}
	labels, err := synth.QuarterSequence(firstLabel, base+extra)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	set := &storeSet{dir: dir}
	for i, label := range labels {
		a, err := core.Run(sampleReports(pool, storeReports, quarterSeed(seed, i)), mineOptions())
		if err != nil {
			return nil, fmt.Errorf("mining %s: %w", label, err)
		}
		q := quarter{label: label, analysis: a}
		if i >= base {
			set.published = append(set.published, q)
			continue
		}
		if err := store.WriteFile(filepath.Join(dir, label+store.Ext), label, a); err != nil {
			return nil, err
		}
		set.base = append(set.base, q)
	}
	if err := watch.SaveFile(filepath.Join(dir, "watchlists.mrwl"), seedWatchlists(set.base)); err != nil {
		return nil, err
	}
	return set, nil
}

// seedWatchlists builds watchlists over the drugs of the first
// quarter's top signals, spread over ten users.
func seedWatchlists(base []quarter) []*watch.Watchlist {
	var drugs []string
	seen := map[string]bool{}
	for _, s := range base[0].analysis.Signals {
		for _, d := range s.Drugs {
			if !seen[d] {
				seen[d] = true
				drugs = append(drugs, d)
			}
		}
		if len(drugs) >= watchlists {
			break
		}
	}
	out := make([]*watch.Watchlist, 0, len(drugs))
	for i, d := range drugs {
		w := &watch.Watchlist{
			ID:   "wl-" + strconv.Itoa(i+1),
			User: "analyst" + strconv.Itoa(i%10),
			Name: "watch " + d,
			// Every list watches one drug; the second drug widens a
			// third of them so the index has shared postings.
			Drugs:      []string{d},
			MinSupport: minSupport,
		}
		if i%3 == 0 && i+1 < len(drugs) {
			w.Drugs = append(w.Drugs, drugs[i+1])
		}
		out = append(out, w)
	}
	return out
}

// snapshotDigest hashes a snapshot file's bytes with the save
// timestamp zeroed and the CRC trailer (which covers the timestamp)
// dropped, so two writes of the same analysis compare equal however far
// apart they were made. The layout is the store codec's: an 8-byte
// header, then the meta section (id, reserved, length) holding the
// label string and the save time as a varint.
func snapshotDigest(b []byte) (string, error) {
	const metaBody = 8 + 8
	if len(b) < metaBody+4 {
		return "", fmt.Errorf("snapshot of %d bytes is too short", len(b))
	}
	c := append([]byte(nil), b[:len(b)-4]...)
	n, k := binary.Uvarint(c[metaBody:])
	if k <= 0 {
		return "", fmt.Errorf("snapshot label length unreadable")
	}
	at := metaBody + k + int(n)
	if at >= len(c) {
		return "", fmt.Errorf("snapshot label overruns the file")
	}
	_, k = binary.Varint(c[at:])
	if k <= 0 {
		return "", fmt.Errorf("snapshot save time unreadable")
	}
	for i := at; i < at+k; i++ {
		c[i] = 0
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:8]), nil
}

// storeDigest digests every snapshot file of a store directory, in
// label order.
func storeDigest(dir string) (string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*"+store.Ext))
	if err != nil {
		return "", err
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return "", err
		}
		d, err := snapshotDigest(b)
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(h, "%s %s\n", filepath.Base(name), d)
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// signalDigest hashes the ranked signals of an analysis, so two
// commits that should rank alike can be compared by one string.
func signalDigest(a *core.Analysis) string {
	var b bytes.Buffer
	for _, s := range a.Signals {
		fmt.Fprintf(&b, "%d %.9g %s > %v %d\n", s.Rank, s.Score, knowledge.DrugKey(s.Drugs), s.Reactions, s.Support)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:8])
}
