package core

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"maras/internal/assoc"
	"maras/internal/faers"
	"maras/internal/rank"
	"maras/internal/synth"
	"maras/internal/txdb"
	"maras/internal/types"
)

// oracleMaxItems bounds the item universe of the whole-pipeline
// oracle: it enumerates all 2^n itemsets.
const oracleMaxItems = 16

// oracleTol is how far a pipeline score may stray from the oracle's,
// which sums Formula 3.5's terms in its own order.
const oracleTol = 1e-9

// oracleRule is a rule ant ⇒ con over item bitmasks with its measures
// (Formulas 2.1–2.3).
type oracleRule struct {
	ant, con            uint32
	sup, antSup, conSup int
	conf, lift          float64
}

func (r oracleRule) key() string {
	return maskSet(r.ant).Key() + "=>" + maskSet(r.con).Key()
}

// oracleSignal is one ranked target with its context: levels[i] holds
// the rules whose antecedents have |A|−1−i drugs.
type oracleSignal struct {
	target oracleRule
	levels [][]oracleRule
	score  float64
}

// oracleSignals computes by definition what Run must return for db
// (the output of EncodeReports) under opts, without TopK. It calls
// nothing in lcm, fpgrowth, assoc, mcac or rank:
//
//   - every itemset over the dictionary is a bitmask; S is closed when
//     intent(extent(S)) = S, the intersection of the transactions
//     containing S;
//   - the rule base applies the MaxItems rule documented on
//     lcm.Options: the frequent closed sets of at most L items, plus
//     the L-item subsets of every longer frequent closed set C that
//     have C's support;
//   - a set is a target A ⇒ B when MinDrugs ≤ |A| ≤ MaxDrugs and B
//     holds at least one reaction;
//   - each target's context is X ⇒ B for every non-empty X ⊊ A
//     (Def 3.5.1), one level per |X|, each level ordered by confidence
//     descending, then rule key;
//   - Formula 3.5 is summed term by term: per level k the mean v̄_k
//     and the population coefficient of variation of the level's
//     values, the linear decay 1−(k−1)/|A|, the penalty 1−θ·Cv,
//     divided by the |A|−1 levels;
//   - the signals are ordered by score, then support, both
//     descending, then target key.
func oracleSignals(t testing.TB, db *txdb.DB, opts Options) []oracleSignal {
	t.Helper()
	dict := db.Dict()
	nItems := dict.Len()
	if nItems > oracleMaxItems {
		t.Fatalf("oracle: %d items, at most %d", nItems, oracleMaxItems)
	}
	if opts.Decay != nil || opts.TopK != 0 ||
		(opts.Method != rank.ByExclusivenessConf && opts.Method != rank.ByExclusivenessLift) {
		t.Fatal("oracle: only exclusiveness ranking with linear decay and no TopK")
	}
	minsup := max(opts.MinSupport, 1)
	minDrugs := max(opts.MinDrugs, 2)
	theta := min(max(opts.Theta, 0), 1)

	var drugMask uint32
	for it := 0; it < nItems; it++ {
		if dict.IsDrug(types.Item(it)) {
			drugMask |= 1 << it
		}
	}
	txs := make([]uint32, db.Len())
	for i := range txs {
		for _, it := range db.Tx(txdb.TID(i)).Items {
			txs[i] |= 1 << it
		}
	}
	// extent size and intent(extent(x)) of every itemset x.
	support := make([]int, 1<<nItems)
	closure := make([]uint32, 1<<nItems)
	for x := range support {
		closure[x] = 1<<nItems - 1
		for _, m := range txs {
			if m&uint32(x) == uint32(x) {
				support[x]++
				closure[x] &= m
			}
		}
	}
	rule := func(ant, con uint32) oracleRule {
		r := oracleRule{ant: ant, con: con, sup: support[ant|con], antSup: support[ant], conSup: support[con]}
		r.conf = float64(r.sup) / float64(r.antSup)
		r.lift = float64(r.sup) * float64(len(txs)) / (float64(r.antSup) * float64(r.conSup))
		return r
	}
	value := func(r oracleRule) float64 {
		if opts.Method == rank.ByExclusivenessLift {
			return r.lift
		}
		return r.conf
	}

	// The rule base: closed sets, bounded by MaxItems.
	base := make([]bool, 1<<nItems)
	for x := uint32(1); x < 1<<nItems; x++ {
		if support[x] < minsup || closure[x] != x {
			continue
		}
		if opts.MaxItems <= 0 || bits.OnesCount32(x) <= opts.MaxItems {
			base[x] = true
			continue
		}
		for y := x; y > 0; y = (y - 1) & x {
			if bits.OnesCount32(y) == opts.MaxItems && support[y] == support[x] {
				base[y] = true
			}
		}
	}

	var out []oracleSignal
	for x := range base {
		drugs, reacs := uint32(x)&drugMask, uint32(x)&^drugMask
		n := bits.OnesCount32(drugs)
		if !base[x] || n < minDrugs || (opts.MaxDrugs > 0 && n > opts.MaxDrugs) || reacs == 0 {
			continue
		}
		s := oracleSignal{target: rule(drugs, reacs), levels: make([][]oracleRule, n-1)}
		for sub := (drugs - 1) & drugs; sub > 0; sub = (sub - 1) & drugs {
			k := bits.OnesCount32(sub)
			s.levels[n-1-k] = append(s.levels[n-1-k], rule(sub, reacs))
		}
		p := value(s.target)
		sum := 0.0
		for i, level := range s.levels {
			k := n - 1 - i
			slices.SortFunc(level, func(a, b oracleRule) int {
				if a.conf != b.conf {
					return cmp.Compare(b.conf, a.conf)
				}
				return cmp.Compare(a.key(), b.key())
			})
			mean := 0.0
			for _, r := range level {
				mean += value(r)
			}
			mean /= float64(len(level))
			cv := 0.0
			if mean != 0 {
				ss := 0.0
				for _, r := range level {
					ss += (value(r) - mean) * (value(r) - mean)
				}
				cv = math.Abs(math.Sqrt(ss/float64(len(level))) / mean)
			}
			decay := 1 - float64(k-1)/float64(n)
			sum += (p - mean) * decay * (1 - theta*cv)
		}
		s.score = sum / float64(n-1)
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b oracleSignal) int {
		if a.score != b.score {
			return cmp.Compare(b.score, a.score)
		}
		if a.target.sup != b.target.sup {
			return cmp.Compare(b.target.sup, a.target.sup)
		}
		return cmp.Compare(a.target.key(), b.target.key())
	})
	return out
}

// maskSet lists the items of bitmask x.
func maskSet(x uint32) types.Itemset {
	var s types.Itemset
	for ; x != 0; x &= x - 1 {
		s = append(s, types.Item(bits.TrailingZeros32(x)))
	}
	return s
}

func setMask(s types.Itemset) uint32 {
	var x uint32
	for _, it := range s {
		x |= 1 << it
	}
	return x
}

// oracleLink computes by definition how Run links the target x (an
// item bitmask) to the reports of db (the output of EncodeReports) and
// of raw, the reports it was encoded from:
//
//   - its support type: Explicit when some transaction equals x
//     (Def 3.3.1); Implicit when the transactions of some subset of at
//     least two that contain x intersect exactly in x (Def 3.3.2). The
//     intersections of every such subset are enumerated as a set of
//     distinct masks, one containing transaction at a time: each joins
//     every subset so far, and starts one of its own;
//   - its report IDs: the primary IDs of the transactions containing
//     x, from a scan, sorted;
//   - its serious share: the fraction of those IDs that some raw
//     report with a severe outcome carries.
func oracleLink(db *txdb.DB, raw []faers.Report, x uint32) (assoc.SupportType, []string, float64) {
	serious := map[string]bool{}
	for i := range raw {
		if len(raw[i].Outcomes) > 0 {
			serious[raw[i].PrimaryID] = true
		}
	}
	st := assoc.Unsupported
	single := map[uint32]bool{} // intersections of one transaction
	multi := map[uint32]bool{}  // of at least two
	var ids []string
	nSerious := 0
	for tid := range db.Len() {
		tx := db.Tx(txdb.TID(tid))
		m := setMask(tx.Items)
		if m&x != x {
			continue
		}
		ids = append(ids, tx.ReportID)
		if serious[tx.ReportID] {
			nSerious++
		}
		if m == x {
			st = assoc.Explicit
		}
		var joined []uint32
		for _, sets := range []map[uint32]bool{single, multi} {
			for in := range sets {
				joined = append(joined, in&m)
			}
		}
		for _, in := range joined {
			multi[in] = true
		}
		single[m] = true
	}
	if st != assoc.Explicit && multi[x] {
		st = assoc.Implicit
	}
	slices.Sort(ids)
	share := 0.0
	if len(ids) > 0 {
		share = float64(nSerious) / float64(len(ids))
	}
	return st, ids, share
}

// checkAgainstOracle runs the pipeline at GOMAXPROCS 1 and 4 and
// compares it signal for signal with oracleSignals: names, supports,
// target measures and every level's rules exactly, scores within
// oracleTol, and with oracleLink: support type, report IDs and serious
// share. Signals whose oracle scores lie within oracleTol of their
// neighbours form a tie group, and the pipeline may order a tie group
// any way. It returns the number of signals compared.
func checkAgainstOracle(t *testing.T, label string, reports []faers.Report, opts Options) int {
	t.Helper()
	db, _, err := EncodeReports(reports, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	dict := db.Dict()
	want := oracleSignals(t, db, opts)
	byKey := make(map[string]int, len(want))
	group := make([]int, len(want)) // index of the first signal of each signal's tie group
	for i, w := range want {
		byKey[w.target.key()] = i
		if i > 0 && want[i-1].score-w.score <= oracleTol {
			group[i] = group[i-1]
		} else {
			group[i] = i
		}
	}
	for _, procs := range []int{1, 4} {
		a := runAt(t, procs, reports, opts)
		if len(a.Signals) != len(want) {
			t.Fatalf("%s (GOMAXPROCS=%d): %d signals, oracle %d", label, procs, len(a.Signals), len(want))
		}
		seen := make(map[int]bool, len(want))
		for i := range a.Signals {
			s := &a.Signals[i]
			where := fmt.Sprintf("%s (GOMAXPROCS=%d): signal %d (%s => %s)", label, procs, i+1, s.Drugs, s.Reactions)
			tgt := s.Cluster.Target
			j, ok := byKey[oracleRule{ant: setMask(tgt.Antecedent), con: setMask(tgt.Consequent)}.key()]
			if !ok || seen[j] {
				t.Fatalf("%s: not an oracle target, or ranked twice", where)
			}
			seen[j] = true
			if group[j] != group[i] {
				t.Fatalf("%s: ranked %d, oracle ranks it %d (score %v, oracle %v)", where, i+1, j+1, s.Score, want[j].score)
			}
			w := want[j]
			if s.Rank != i+1 {
				t.Fatalf("%s: rank %d", where, s.Rank)
			}
			if math.Abs(s.Score-w.score) > oracleTol {
				t.Fatalf("%s: score %v, oracle %v", where, s.Score, w.score)
			}
			if got, exp := fmt.Sprint(s.Drugs), fmt.Sprint(dict.SortedNames(maskSet(w.target.ant))); got != exp {
				t.Fatalf("%s: drugs %s, oracle %s", where, got, exp)
			}
			if got, exp := fmt.Sprint(s.Reactions), fmt.Sprint(dict.SortedNames(maskSet(w.target.con))); got != exp {
				t.Fatalf("%s: reactions %s, oracle %s", where, got, exp)
			}
			if s.Support != w.target.sup || s.Confidence != w.target.conf || s.Lift != w.target.lift {
				t.Fatalf("%s: measures sup=%d conf=%v lift=%v, oracle %+v", where, s.Support, s.Confidence, s.Lift, w.target)
			}
			if err := matchRule(tgt, w.target); err != nil {
				t.Fatalf("%s: target %v", where, err)
			}
			st, ids, share := oracleLink(db, reports, w.target.ant|w.target.con)
			if s.SupportType != st || !slices.Equal(s.ReportIDs, ids) || s.SeriousShare != share {
				t.Fatalf("%s: %s, reports %v, serious share %v; oracle %s, %v, %v",
					where, s.SupportType, s.ReportIDs, s.SeriousShare, st, ids, share)
			}
			if len(s.Cluster.Levels) != len(w.levels) {
				t.Fatalf("%s: %d levels, oracle %d", where, len(s.Cluster.Levels), len(w.levels))
			}
			for k, l := range s.Cluster.Levels {
				wl := w.levels[k]
				if card := len(w.levels) - k; l.Cardinality != card || len(l.Rules) != len(wl) {
					t.Fatalf("%s: level %d is %d×%d rules, oracle %d×%d", where, k, l.Cardinality, len(l.Rules), card, len(wl))
				}
				for r := range l.Rules {
					if err := matchRule(l.Rules[r], wl[r]); err != nil {
						t.Fatalf("%s: level %d rule %d: %v", where, l.Cardinality, r, err)
					}
				}
			}
		}
	}
	return len(want)
}

// runAt runs the pipeline with GOMAXPROCS set to procs.
func runAt(t *testing.T, procs int, reports []faers.Report, opts Options) *Analysis {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	a, err := Run(reports, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// matchRule reports how the pipeline's rule got differs from the
// oracle's. Ratios are compared exactly: both sides divide the same
// integers once.
func matchRule(got assoc.Rule, want oracleRule) error {
	if setMask(got.Antecedent) != want.ant || setMask(got.Consequent) != want.con ||
		got.Support != want.sup || got.AntSupport != want.antSup || got.ConSupport != want.conSup ||
		got.Confidence != want.conf || got.Lift != want.lift {
		return fmt.Errorf("%+v, oracle %s %+v", got, want.key(), want)
	}
	return nil
}

// TestClosedTargetsAreSupported checks Lemma 3.4.2 through the whole
// pipeline on a synthetic quarter too large for the oracle: without a
// length cap every target is a closed set, so no signal is
// unsupported, and each signal's type is the one the general
// classifier gives its complete itemset from the database.
func TestClosedTargetsAreSupported(t *testing.T) {
	cfg := synth.DefaultConfig("2014Q1", 3)
	cfg.Reports = 2500
	cfg.ExposureRate = 0.05
	q, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := NewOptions()
	opts.MinSupport = 4
	opts.MaxItems = 0
	opts.TopK = 0
	a, err := RunQuarter(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[assoc.SupportType]int{}
	for i := range a.Signals {
		s := &a.Signals[i]
		complete := s.Cluster.Target.Complete()
		if want := assoc.Classify(a.DB(), complete); s.SupportType != want || want == assoc.Unsupported {
			t.Fatalf("signal %d (%s => %s): %s, by definition %s", s.Rank, s.Drugs, s.Reactions, s.SupportType, want)
		}
		seen[s.SupportType]++
	}
	if seen[assoc.Explicit] == 0 || seen[assoc.Implicit] == 0 {
		t.Errorf("types %v, want explicit and implicit signals", seen)
	}
}

// oracleDrugs and oracleReactions are the vocabulary of the random
// corpora held to the oracle: 10 drugs and 6 reactions fill the
// oracle's 16 items.
var (
	oracleDrugs = []string{"ASPIRIN", "WARFARIN", "METFORMIN", "LISINOPRIL", "SIMVASTATIN",
		"OMEPRAZOLE", "AMLODIPINE", "IBUPROFEN", "DIGOXIN", "PREDNISONE"}
	oracleReactions = []string{"Nausea", "Rash", "Headache", "Dizziness", "Haemorrhage", "Fatigue"}
)

// FuzzRunMatchesOracle decodes the input into the options of a run
// (minimum support, MaxItems, MaxDrugs, θ and the measure) and up to 32
// expedited reports over 8 drugs and 6 reactions, two bytes each: a
// drug bitmask, then a reaction bitmask whose top bit gives the report
// a severe outcome. It holds Run to the oracle at GOMAXPROCS 1 and 4.
func FuzzRunMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 0x03, 0x01, 0x03, 0x01, 0x01, 0x02, 0x02, 0x02})
	f.Add([]byte{1, 4, 3, 2, 0x07, 0x11, 0x07, 0x11, 0x03, 0x01, 0x05, 0x10, 0x06, 0x01})
	f.Add([]byte{0, 0, 0, 3, 0xff, 0x3f, 0xff, 0x3f, 0x0f, 0x07, 0xf0, 0x38, 0x3c, 0x0c})
	f.Add([]byte{2, 2, 2, 5, 0x1b, 0x2d, 0x1b, 0x2d, 0x1b, 0x2d, 0x0b, 0x05, 0x19, 0x28})
	// Three reports meeting in a target no two of them meet in, two of
	// them serious.
	f.Add([]byte{0, 0, 0, 0, 0x0f, 0x81, 0x17, 0x81, 0x1b, 0x01, 0x03, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		opts := NewOptions()
		opts.MinSupport = 1 + int(data[0])%3
		opts.MaxItems = int(data[1]) % 7
		opts.MaxDrugs = int(data[2]) % 6
		opts.Theta = []float64{0, 0.5, 1}[data[3]%3]
		opts.Method = []rank.Method{rank.ByExclusivenessConf, rank.ByExclusivenessLift}[data[3]/3%2]
		opts.TopK = 0
		var reports []faers.Report
		for data = data[4:]; len(data) >= 2 && len(reports) < 32; data = data[2:] {
			r := faers.Report{
				PrimaryID:  fmt.Sprint(100 + len(reports)),
				CaseID:     fmt.Sprint("C", len(reports)),
				ReportCode: "EXP",
			}
			for i, d := range oracleDrugs[:8] {
				if data[0]&(1<<i) != 0 {
					r.Drugs = append(r.Drugs, d)
				}
			}
			for i, x := range oracleReactions {
				if data[1]&(1<<i) != 0 {
					r.Reactions = append(r.Reactions, x)
				}
			}
			if data[1]&0x80 != 0 {
				r.Outcomes = []string{"HO"}
			}
			reports = append(reports, r)
		}
		if _, _, err := EncodeReports(reports, opts); err != nil {
			return // nothing survives cleaning
		}
		checkAgainstOracle(t, "fuzz", reports, opts)
	})
}
