package route

import "polarstar/internal/graph"

// TreeEscape routes around failed links over edge-disjoint spanning
// trees (the Dawkins et al. companion-work structure, §6.1.1): each tree
// yields one up-down src→LCA→dst path, and because the trees are
// pairwise edge-disjoint, a single failed link invalidates the path of
// at most one tree. The simulator uses it as the escape router when all
// minimal next hops of an analytically routed topology are down; its
// paths are simple (tree paths are vertex-simple), so they stay
// deadlock-free under the simulator's strictly-increasing VC ladder.
//
// TreeEscape is immutable after construction and safe for concurrent
// readers: AppendPath keeps its working set in stack-local arrays.
type TreeEscape struct {
	trees []pathTree
}

// escMaxDepth bounds the tree depth a path query can climb; a pair
// deeper than this skips the tree (simulator paths are capped far below
// anyway).
const escMaxDepth = 64

// NewTreeEscape extracts up to maxTrees edge-disjoint spanning trees of g
// (deterministic per seed) and prepares them for liveness-checked path
// queries. It shares EdgeDisjointSpanningTrees's error contract:
// maxTrees <= 0 is ErrTreeCount and a graph with no spanning tree is
// ErrDisconnected. Callers that can live without escape paths (the
// simulator's fault machinery) may fall back to a zero TreeEscape, whose
// AppendPath always fails over to its caller's last resort.
func NewTreeEscape(g *graph.Graph, maxTrees int, seed int64) (*TreeEscape, error) {
	trees, err := EdgeDisjointSpanningTrees(g, 0, maxTrees, seed)
	if err != nil {
		return nil, err
	}
	te := &TreeEscape{}
	for _, tr := range trees {
		te.trees = append(te.trees, newPathTree(tr))
	}
	return te, nil
}

// AppendPath appends the shortest fully-live up-down tree path from src
// to dst onto buf and returns the extended slice (buf unchanged when no
// tree offers one). live reports whether the directed link u→v is
// usable; nil means every link is live. Ties between equally short tree
// paths break toward the lowest tree index, so results are deterministic.
func (te *TreeEscape) AppendPath(buf []int, src, dst int, live func(u, v int) bool) []int {
	if src == dst {
		return buf
	}
	var best, cur TreeWalk
	found := false
	for _, tr := range te.trees {
		if !tr.walk(&cur, src, dst) || found && cur.Hops() >= best.Hops() {
			continue
		}
		if live != nil && !cur.Live(live) {
			continue
		}
		best, found = cur, true
	}
	if !found {
		return buf
	}
	return best.AppendTo(buf)
}

// pathTree is a spanning tree prepared for up-down path queries: the
// parent links and every vertex's depth. TreeEscape and MultiPath route
// over it.
type pathTree struct {
	parent []int32 // vertex -> parent (-1 root, -2 unreached)
	depth  []int32 // vertex -> depth from the root
}

func newPathTree(t *SpanningTree) pathTree {
	return pathTree{parent: t.Parent, depth: t.Depths()}
}

// TreeWalk is one up-down tree path, walked but not yet copied: up climbs
// from src and down from dst, each stopping below their lowest common
// ancestor lca. The path is up, then lca, then down reversed.
type TreeWalk struct {
	up, down [escMaxDepth]int32
	nu, nd   int
	lca      int32
}

// walk fills w with the tree's path from src to dst (src != dst). It
// reports false when either end is outside the tree or deeper than
// escMaxDepth.
func (t pathTree) walk(w *TreeWalk, src, dst int) bool {
	if t.parent[src] == -2 || t.parent[dst] == -2 {
		return false
	}
	a, b := int32(src), int32(dst)
	da, db := t.depth[a], t.depth[b]
	if da >= escMaxDepth || db >= escMaxDepth {
		return false
	}
	w.nu, w.nd = 0, 0
	for da > db {
		w.up[w.nu] = a
		w.nu++
		a, da = t.parent[a], da-1
	}
	for db > da {
		w.down[w.nd] = b
		w.nd++
		b, db = t.parent[b], db-1
	}
	for a != b {
		w.up[w.nu] = a
		w.down[w.nd] = b
		w.nu++
		w.nd++
		a, b = t.parent[a], t.parent[b]
	}
	w.lca = a
	return true
}

// Hops is the path's link count: up to the LCA and back down.
func (w *TreeWalk) Hops() int { return w.nu + w.nd }

// At returns the path's i-th router, 0 <= i <= hops (0 is src).
func (w *TreeWalk) At(i int) int {
	switch {
	case i < w.nu:
		return int(w.up[i])
	case i == w.nu:
		return int(w.lca)
	}
	return int(w.down[w.nu+w.nd-i])
}

// Live checks every directed hop of the path, in path order.
func (w *TreeWalk) Live(live func(u, v int) bool) bool {
	for i := 0; i < w.Hops(); i++ {
		if !live(w.At(i), w.At(i+1)) {
			return false
		}
	}
	return true
}

// AppendTo appends the path's routers, src to dst, onto buf.
func (w *TreeWalk) AppendTo(buf []int) []int {
	for i := 0; i <= w.Hops(); i++ {
		buf = append(buf, w.At(i))
	}
	return buf
}
