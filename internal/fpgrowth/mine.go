package fpgrowth

import (
	"maras/internal/txdb"
	"maras/internal/types"
)

// Options tunes the miner.
type Options struct {
	// MinSupport is the absolute minimum support (count of reports).
	// Values below 1 are treated as 1.
	MinSupport int
	// MaxLen bounds the itemset length; 0 means unbounded. FAERS
	// signals of interest involve a handful of drugs plus reactions,
	// so pipelines usually set a bound (e.g. 10) as a safety valve.
	MaxLen int
}

// Mine enumerates every frequent itemset in db under opts, in no
// particular order.
func Mine(db *txdb.DB, opts Options) []types.FrequentSet {
	if opts.MinSupport < 1 {
		opts.MinSupport = 1
	}
	var out []types.FrequentSet
	mineTree(buildInitial(db, opts.MinSupport), nil, opts, &out)
	return out
}

// mineTree is the FP-Growth recursion: for each frequent item in t
// (least-frequent first), emit suffix+item and recurse into the
// conditional tree.
func mineTree(t *tree, suffix types.Itemset, opts Options, out *[]types.FrequentSet) {
	for _, it := range t.items() {
		ext := suffix.Union(types.Itemset{it})
		*out = append(*out, types.FrequentSet{Items: ext, Support: t.counts[it]})
		if opts.MaxLen > 0 && len(ext) >= opts.MaxLen {
			continue
		}
		if cond := t.conditional(it); len(cond.counts) > 0 {
			mineTree(cond, ext, opts, out)
		}
	}
}
