// Package fpgrowth implements frequent-itemset mining with the
// FP-Growth algorithm, the mining engine the paper names ("We use
// FP-Growth trees for closed item-set and rule generation", Section
// 5.2). Mine enumerates every frequent itemset by recursive
// conditional FP-tree projection. It sizes the rule spaces of Fig 5.1
// (core's Options.CountRules) and is the frequent-set baseline of the
// apriori comparison and the ablations; the closed sets the pipeline
// ranks come from package lcm.
package fpgrowth

import (
	"sort"

	"maras/internal/txdb"
	"maras/internal/types"
)

// node is an FP-tree node. Children are kept in a small map; FAERS
// transactions are short (tens of items), so fan-out stays modest.
type node struct {
	item     types.Item
	count    int
	parent   *node
	children map[types.Item]*node
	next     *node // header-table chain of nodes holding the same item
}

// tree is an FP-tree plus its header table.
type tree struct {
	root   *node
	heads  map[types.Item]*node // head of each item's node chain
	counts map[types.Item]int   // total support of each item in this tree
	order  map[types.Item]int   // global frequency rank used to sort paths
	minsup int
}

func newTree(order map[types.Item]int, minsup int) *tree {
	return &tree{
		root:   &node{children: make(map[types.Item]*node)},
		heads:  make(map[types.Item]*node),
		counts: make(map[types.Item]int),
		order:  order,
		minsup: minsup,
	}
}

// insert adds a path of items (already filtered to frequent items and
// sorted by descending global frequency) with the given count.
func (t *tree) insert(path []types.Item, count int) {
	cur := t.root
	for _, it := range path {
		child := cur.children[it]
		if child == nil {
			child = &node{item: it, parent: cur, children: make(map[types.Item]*node)}
			cur.children[it] = child
			child.next = t.heads[it]
			t.heads[it] = child
		}
		child.count += count
		t.counts[it] += count
		cur = child
	}
}

// items returns the tree's items sorted ascending by global frequency
// rank (i.e. least-frequent first), the order FP-Growth peels suffix
// items in.
func (t *tree) items() []types.Item {
	out := make([]types.Item, 0, len(t.counts))
	for it, c := range t.counts {
		if c >= t.minsup {
			out = append(out, it)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		// Higher rank value = less frequent; peel those first.
		ri, rj := t.order[out[i]], t.order[out[j]]
		if ri != rj {
			return ri > rj
		}
		return out[i] > out[j]
	})
	return out
}

// conditional builds the conditional FP-tree for item it: the tree of
// prefix paths of every node carrying it, with infrequent items
// dropped.
func (t *tree) conditional(it types.Item) *tree {
	// First pass: count item frequencies along the prefix paths.
	condCounts := make(map[types.Item]int)
	for n := t.heads[it]; n != nil; n = n.next {
		// The root is the unique node with a nil parent; stop there.
		for p := n.parent; p.parent != nil; p = p.parent {
			condCounts[p.item] += n.count
		}
	}
	cond := newTree(t.order, t.minsup)
	// Second pass: insert filtered prefix paths.
	var path []types.Item
	for n := t.heads[it]; n != nil; n = n.next {
		path = path[:0]
		for p := n.parent; p != nil && p.parent != nil; p = p.parent {
			if condCounts[p.item] >= t.minsup {
				path = append(path, p.item)
			}
		}
		if len(path) == 0 {
			continue
		}
		// path was collected leaf→root; reverse to root→leaf, which
		// is descending-frequency order by FP-tree construction.
		for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
			path[i], path[j] = path[j], path[i]
		}
		cond.insert(path, n.count)
	}
	return cond
}

// buildInitial constructs the top-level FP-tree over db, its paths
// sorted by the global frequency order of frequent items.
func buildInitial(db *txdb.DB, minsup int) *tree {
	// Global item frequencies.
	freq := make(map[types.Item]int)
	for t := range txdb.TID(db.Len()) {
		for _, it := range db.Tx(t).Items {
			freq[it]++
		}
	}
	frequent := make([]types.Item, 0, len(freq))
	for it, c := range freq {
		if c >= minsup {
			frequent = append(frequent, it)
		}
	}
	// Deterministic order: by descending frequency, then ascending ID.
	sort.Slice(frequent, func(i, j int) bool {
		if freq[frequent[i]] != freq[frequent[j]] {
			return freq[frequent[i]] > freq[frequent[j]]
		}
		return frequent[i] < frequent[j]
	})
	order := make(map[types.Item]int, len(frequent))
	for rank, it := range frequent {
		order[it] = rank
	}

	t := newTree(order, minsup)
	var path []types.Item
	for tid := range txdb.TID(db.Len()) {
		path = path[:0]
		for _, it := range db.Tx(tid).Items {
			if _, ok := order[it]; ok {
				path = append(path, it)
			}
		}
		sort.Slice(path, func(i, j int) bool { return order[path[i]] < order[path[j]] })
		if len(path) > 0 {
			t.insert(path, 1)
		}
	}
	return t
}
