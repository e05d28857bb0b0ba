package route

import (
	"fmt"
	"math/rand"

	"polarstar/internal/graph"
)

// MultiPath composes a minimal-path engine with k edge-disjoint spanning
// trees used as parallel routing lanes: lane 0 is the minimal engine,
// lanes 1..k are the per-tree up-down (src→LCA→dst) paths. Because the
// trees are pairwise edge-disjoint, a failed link invalidates the paths
// of at most one tree lane — the others keep carrying traffic — and
// because each tree's paths stay inside that tree, mapping every lane to
// its own virtual-channel band keeps the composite deadlock-free (see
// DESIGN.md §13). The trees come from EdgeDisjointBFSTrees, whose
// shallow rooting keeps lane paths short enough to route with, not just
// escape over.
//
// MultiPath is immutable after construction and safe for concurrent
// readers: lane path queries keep their working set in stack-local
// arrays. It implements Engine by delegating to the minimal engine, so
// it can stand wherever a single-path engine does.
type MultiPath struct {
	min     Engine
	trees   []pathTree
	maxHops []int // per tree: usable up-down hop bound (depth- and cap-limited)
	edges   [][][2]int
}

// NewMultiPath extracts up to `lanes` edge-disjoint BFS spanning trees of
// g (deterministic per seed) as routing lanes beside the minimal engine
// min. hopCap bounds the per-lane path length (a simulator passes its
// path budget; <= 0 leaves lanes bounded by tree depth alone): pairs
// whose tree path exceeds a lane's bound simply skip that lane. Fewer
// trees than requested is not an error — TreeLanes reports how many were
// found; lanes <= 0 is ErrTreeCount and an unspannable graph is
// ErrDisconnected (both via EdgeDisjointBFSTrees).
func NewMultiPath(g *graph.Graph, min Engine, lanes, hopCap int, seed int64) (*MultiPath, error) {
	trees, err := EdgeDisjointBFSTrees(g, 0, lanes, seed)
	if err != nil {
		return nil, fmt.Errorf("route: multipath lanes: %w", err)
	}
	m := &MultiPath{min: min}
	for _, tr := range trees {
		pt := newPathTree(tr)
		deepest := maxDepth(pt.depth)
		if deepest >= escMaxDepth {
			continue // pathological tree: unusable as a bounded lane
		}
		hops := 2 * deepest
		if hopCap > 0 && hops > hopCap {
			hops = hopCap
		}
		m.trees = append(m.trees, pt)
		m.maxHops = append(m.maxHops, hops)
		m.edges = append(m.edges, tr.Edges())
	}
	if len(m.trees) == 0 {
		return nil, fmt.Errorf("route: multipath lanes: %w (no tree usable within depth %d)", ErrDisconnected, escMaxDepth)
	}
	return m, nil
}

// TreeLanes returns the number of tree lanes extracted (excluding the
// minimal lane 0).
func (m *MultiPath) TreeLanes() int { return len(m.trees) }

// LaneMaxHops bounds the hop count of any path AppendTreePath returns
// for tree lane l (0-based tree index).
func (m *MultiPath) LaneMaxHops(l int) int { return m.maxHops[l] }

// TreeEdges returns the undirected edges of tree lane l (0-based). The
// slice is owned by the MultiPath; callers must not mutate it.
func (m *MultiPath) TreeEdges(l int) [][2]int { return m.edges[l] }

// AppendTreePath appends tree lane l's up-down path from src to dst onto
// buf and returns the extended slice — buf unchanged when the path
// exceeds the lane's hop bound or crosses a link live reports dead (nil
// live means every link is up). Deterministic: the tree fixes the path.
func (m *MultiPath) AppendTreePath(buf []int, l, src, dst int, live func(u, v int) bool) []int {
	var w TreeWalk
	if !m.WalkTree(&w, l, src, dst) || live != nil && !w.Live(live) {
		return buf
	}
	return w.AppendTo(buf)
}

// WalkTree fills w with tree lane l's up-down path from src to dst
// without checking liveness or copying it, so a caller can score the
// path first. It reports false for src == dst, a pair outside the tree,
// or a path beyond the lane's hop bound.
func (m *MultiPath) WalkTree(w *TreeWalk, l, src, dst int) bool {
	return src != dst && m.trees[l].walk(w, src, dst) && w.Hops() <= m.maxHops[l]
}

// AppendPath implements Engine via the minimal lane.
func (m *MultiPath) AppendPath(buf []int, src, dst int, rng *rand.Rand) []int {
	return m.min.AppendPath(buf, src, dst, rng)
}

// Dist implements Engine via the minimal lane.
func (m *MultiPath) Dist(src, dst int) int { return m.min.Dist(src, dst) }
