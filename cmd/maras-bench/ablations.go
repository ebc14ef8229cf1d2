package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"maras/internal/assoc"
	"maras/internal/core"
	"maras/internal/dispro"
	"maras/internal/ebgm"
	"maras/internal/eval"
	"maras/internal/faers"
	"maras/internal/fpgrowth"
	"maras/internal/glyph"
	"maras/internal/knowledge"
	"maras/internal/lcm"
	"maras/internal/mcac"
	"maras/internal/rank"
	"maras/internal/report"
	"maras/internal/txdb"
)

// runAblateTheta sweeps the exclusiveness CV penalty θ (Formula 3.4/
// 3.5) and reports ranking quality against the planted ground truth.
func runAblateTheta(cfg benchConfig) error {
	q, gt, err := genQuarter(cfg, "2014Q1", 0)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A1 — θ (variation penalty) sweep",
		"Theta", "MRR", "Recall@10", "Recall@20", "First hit")
	for _, theta := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		opts := core.NewOptions()
		opts.MinSupport = cfg.minsup
		opts.Theta = theta
		opts.TopK = 0
		a, err := tracedRun(fmt.Sprintf("ablate-theta/theta=%g", theta), q, opts)
		if err != nil {
			return err
		}
		res := eval.Score(signalKeys(a.Signals), gt.Keys())
		t.AddRow(theta, res.MRR, res.RecallAt[10], res.RecallAt[20], res.FirstHitRank)
	}
	t.Render(os.Stdout)
	fmt.Println("\nDesign call: θ penalizes high-variance contexts (one strong sub-rule hiding behind a low average).")
	return nil
}

// runAblateDecay compares the level-decay functions of Formula 3.5.
func runAblateDecay(cfg benchConfig) error {
	q, gt, err := genQuarter(cfg, "2014Q1", 0)
	if err != nil {
		return err
	}
	decays := []struct {
		name string
		fn   rank.Decay
	}{
		{"linear (paper)", rank.LinearDecay},
		{"none", rank.NoDecay},
		{"exponential", rank.ExpDecay},
	}
	t := report.NewTable("Ablation A2 — contextual level decay",
		"Decay", "MRR", "Recall@10", "Recall@20", "First hit")
	for _, d := range decays {
		opts := core.NewOptions()
		opts.MinSupport = cfg.minsup
		opts.Decay = d.fn
		opts.TopK = 0
		a, err := tracedRun("ablate-decay/"+d.name, q, opts)
		if err != nil {
			return err
		}
		res := eval.Score(signalKeys(a.Signals), gt.Keys())
		t.AddRow(d.name, res.MRR, res.RecallAt[10], res.RecallAt[20], res.FirstHitRank)
	}
	t.Render(os.Stdout)
	fmt.Println("\nDesign call: single-drug context matters most; decay choices shift 3+-drug signal ranks only mildly.")
	return nil
}

// runAblateClosed contrasts the closed rule base against the
// unfiltered frequent rule base: rule counts, the share of
// misleading (type-3, unsupported) rules, and ranking quality.
func runAblateClosed(cfg benchConfig) error {
	q, gt, err := genQuarter(cfg, "2014Q1", 0)
	if err != nil {
		return err
	}
	db, err := buildDB(q)
	if err != nil {
		return err
	}
	frequent := fpgrowth.Mine(db, fpgrowth.Options{MinSupport: cfg.minsup, MaxLen: 10})
	// Every closed set, not only targets: the comparison is against the
	// whole frequent set.
	closed := lcm.MineClosed(db, lcm.Options{MinSupport: cfg.minsup, MaxLen: 10})

	ev := assoc.NewEvaluator(db)
	gen := assoc.GenOptions{MinDrugs: 2, MaxDrugs: 5}
	allRules, _ := assoc.FromItemsets(ev, frequent, gen)
	closedRules, _ := assoc.FromItemsets(ev, closed, gen)

	// Classification is linear in the containing reports' items, so
	// the whole rule base is classified.
	unsupportedShare := func(rules []assoc.Rule) float64 {
		if len(rules) == 0 {
			return 0
		}
		unsupported := 0
		for i := range rules {
			if assoc.Classify(db, rules[i].Complete()) == assoc.Unsupported {
				unsupported++
			}
		}
		return float64(unsupported) / float64(len(rules))
	}

	score := func(rules []assoc.Rule) eval.Result {
		clusters := mcac.BuildAll(ev, rules)
		ranked := rank.Rank(clusters, rank.ByExclusivenessConf, rank.Options{Theta: 0.5})
		keys := make([]string, len(ranked))
		for i, r := range ranked {
			keys[i] = drugKeyOf(db, r.Cluster)
		}
		return eval.Score(keys, gt.Keys())
	}

	t := report.NewTable("Ablation A3 — closed vs non-closed rule base",
		"Rule base", "Rules", "Unsupported share", "MRR", "Recall@20")
	resAll := score(allRules)
	resClosed := score(closedRules)
	t.AddRow("all frequent", len(allRules), unsupportedShare(allRules), resAll.MRR, resAll.RecallAt[20])
	t.AddRow("closed (paper)", len(closedRules), unsupportedShare(closedRules), resClosed.MRR, resClosed.RecallAt[20])
	t.Render(os.Stdout)
	fmt.Println("\nDesign call (Lemma 3.4.2): closed complete itemsets carry zero unsupported (misleading) rules and a far smaller rule base at equal or better ranking quality.")
	return nil
}

// runAblateSuspect contrasts mining over all reported drugs against
// mining restricted to suspect drugs (role codes PS/SS/I), the
// standard pharmacovigilance noise-reduction step.
func runAblateSuspect(cfg benchConfig) error {
	q, gt, err := genQuarter(cfg, "2014Q1", 0)
	if err != nil {
		return err
	}
	t := report.NewTable("Ablation A5 — all drugs vs suspect drugs only",
		"Drug scope", "Signals", "MRR", "Recall@10", "Recall@20", "First hit")
	for _, suspectOnly := range []bool{false, true} {
		opts := core.NewOptions()
		opts.MinSupport = cfg.minsup
		opts.SuspectOnly = suspectOnly
		opts.TopK = 0
		a, err := tracedRun(fmt.Sprintf("ablate-suspect/suspect=%v", suspectOnly), q, opts)
		if err != nil {
			return err
		}
		res := eval.Score(signalKeys(a.Signals), gt.Keys())
		label := "all drugs"
		if suspectOnly {
			label = "suspect only (PS/SS/I)"
		}
		t.AddRow(label, len(a.Signals), res.MRR, res.RecallAt[10], res.RecallAt[20], res.FirstHitRank)
	}
	t.Render(os.Stdout)
	fmt.Println("\nDesign call: restricting to the drugs reporters actually blame shrinks the candidate space and")
	fmt.Println("sharpens precision — concomitant medications are the main source of coincidental combinations.")
	return nil
}

// runBaselines compares signal-detection quality across ranking
// methods, including the disproportionality statistics of the
// pharmacovigilance state of the art.
func runBaselines(cfg benchConfig) error {
	q, gt, err := genQuarter(cfg, "2014Q1", 0)
	if err != nil {
		return err
	}
	db, err := buildDB(q)
	if err != nil {
		return err
	}
	closed := lcm.MineClosed(db, lcm.Options{MinSupport: cfg.minsup, MaxLen: 10, MinDrugs: 2})
	ev := assoc.NewEvaluator(db)
	targets, _ := assoc.FromItemsets(ev, closed, assoc.GenOptions{MinDrugs: 2, MaxDrugs: 5})
	clusters := mcac.BuildAll(ev, targets)

	t := report.NewTable("Baselines A4 — ranking methods vs planted ground truth",
		"Method", "MRR", "Recall@10", "Recall@20", "First hit")

	for _, m := range []rank.Method{
		rank.ByExclusivenessConf, rank.ByExclusivenessLift,
		rank.ByImprovement, rank.ByConfidence, rank.ByLift,
	} {
		ranked := rank.Rank(clusters, m, rank.Options{Theta: 0.5})
		keys := make([]string, len(ranked))
		for i, r := range ranked {
			keys[i] = drugKeyOf(db, r.Cluster)
		}
		res := eval.Score(keys, gt.Keys())
		t.AddRow(m.String(), res.MRR, res.RecallAt[10], res.RecallAt[20], res.FirstHitRank)
	}

	// Disproportionality baselines rank the same candidate rules by
	// PRR / RRR / EB05 of (drugs, reactions).
	type scored struct {
		key string
		v   float64
	}
	rankScored := func(name string, list []scored) {
		sort.Slice(list, func(i, j int) bool {
			if list[i].v != list[j].v {
				return list[i].v > list[j].v
			}
			return list[i].key < list[j].key
		})
		keys := make([]string, len(list))
		for i, s := range list {
			keys[i] = s.key
		}
		res := eval.Score(keys, gt.Keys())
		t.AddRow(name, res.MRR, res.RecallAt[10], res.RecallAt[20], res.FirstHitRank)
	}
	for _, d := range []struct {
		name string
		fn   func(dispro.Score) float64
	}{
		{"PRR (disproportionality)", func(s dispro.Score) float64 { return s.PRR }},
		{"RRR (Harpaz-style)", func(s dispro.Score) float64 { return s.RRR }},
	} {
		var list []scored
		for i := range clusters {
			c := &clusters[i]
			s := dispro.Evaluate(db, c.Target.Antecedent, c.Target.Consequent)
			list = append(list, scored{drugKeyOf(db, c), d.fn(s)})
		}
		rankScored(d.name, list)
	}

	// EBGM (DuMouchel MGPS): fit the gamma-mixture prior on the
	// candidates' (N, E) pairs, then rank by the conservative EB05.
	obs := make([]ebgm.Observation, len(clusters))
	n := float64(db.Len())
	for i := range clusters {
		c := &clusters[i]
		e := float64(c.Target.AntSupport) * float64(c.Target.ConSupport) / n
		if e <= 0 {
			e = 1e-9
		}
		obs[i] = ebgm.Observation{N: c.Target.Support, E: e}
	}
	prior, _, err := ebgm.Fit(obs, ebgm.DefaultPrior())
	if err != nil {
		return err
	}
	ebScores, err := ebgm.Evaluate(obs, prior)
	if err != nil {
		return err
	}
	ebList := make([]scored, len(clusters))
	for i := range clusters {
		ebList[i] = scored{drugKeyOf(db, &clusters[i]), ebScores[i].EB05}
	}
	rankScored("EB05 (DuMouchel MGPS)", ebList)
	t.Render(os.Stdout)
	fmt.Println("\nShape check: each exclusiveness variant beats its raw counterpart (context sees sub-rule domination);")
	fmt.Println("raw confidence trails badly, and the lift family benefits from rare-reaction signals as the paper notes.")
	return nil
}

// runFigs4 renders the visual artifacts: a contextual glyph (Fig 4.1),
// the panoramagram (Fig 4.2), the zoom view (Fig 4.3) and the MCAC
// bar-chart (Fig 5.3) for the top-ranked signals.
func runFigs4(cfg benchConfig) error {
	q, _, err := genQuarter(cfg, "2014Q1", 0)
	if err != nil {
		return err
	}
	opts := core.NewOptions()
	opts.MinSupport = cfg.minsup
	opts.TopK = 20
	a, err := tracedRun("figs4", q, opts)
	if err != nil {
		return err
	}
	if len(a.Signals) == 0 {
		return fmt.Errorf("no signals to render")
	}
	if err := os.MkdirAll(cfg.svgOut, 0o755); err != nil {
		return err
	}
	dict := a.Dict()
	write := func(name, content string) error {
		path := filepath.Join(cfg.svgOut, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}
	top := a.Signals[0]
	if err := write("fig4.1_contextual_glyph.svg",
		glyph.Contextual(top.Cluster, glyph.Options{Dict: dict, Size: 240})); err != nil {
		return err
	}
	var entries []glyph.PanoramaEntry
	for _, s := range a.Signals {
		entries = append(entries, glyph.PanoramaEntry{
			Cluster: s.Cluster, Score: s.Score,
			Caption: fmt.Sprintf("#%d %.3f", s.Rank, s.Score),
		})
	}
	if err := write("fig4.2_panoramagram.svg", glyph.Panorama(entries, 5, glyph.Options{Dict: dict})); err != nil {
		return err
	}
	if err := write("fig4.3_zoom.svg", glyph.Zoom(top.Cluster, dict)); err != nil {
		return err
	}
	if err := write("fig5.3_barchart.svg",
		glyph.BarChart(top.Cluster, glyph.Options{Dict: dict, Size: 420})); err != nil {
		return err
	}
	return nil
}

// --- shared helpers ---

func signalKeys(signals []core.Signal) []string {
	out := make([]string, len(signals))
	for i := range signals {
		out[i] = signals[i].Key()
	}
	return out
}

// buildDB runs cleaning + encoding the same way core.Run does, for
// experiments that need direct access to the mining layers.
func buildDB(q *faers.Quarter) (*txdb.DB, error) {
	db, _, err := core.EncodeReports(q.Reports(), core.NewOptions())
	return db, err
}

func drugKeyOf(db *txdb.DB, c *mcac.Cluster) string {
	return knowledge.DrugKey(db.Dict().SortedNames(c.Target.Antecedent))
}
