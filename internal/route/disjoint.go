package route

import (
	"polarstar/internal/graph"
)

// Edge-disjoint path analysis: the path-diversity machinery behind the
// §11.2 resilience discussion. The number of pairwise edge-disjoint
// paths between two routers bounds how many link failures the pair can
// tolerate, and its minimum over pairs is the edge connectivity.

// EdgeDisjointPaths returns a maximum set of pairwise edge-disjoint
// paths from src to dst (at most limit paths; limit <= 0 means
// unbounded). It runs Edmonds–Karp unit-capacity max flow on the
// digraph with an arc in each direction per undirected edge, then
// decomposes the flow into paths.
func EdgeDisjointPaths(g *graph.Graph, src, dst, limit int) [][]int {
	if src == dst {
		return nil
	}
	n := g.N()
	// flow[u] aligned with g.Neighbors(u): +1 when the arc u->v carries
	// flow.
	flow := make([][]int8, n)
	for v := 0; v < n; v++ {
		flow[v] = make([]int8, len(g.Neighbors(v)))
	}
	arcIndex := func(u, v int) int {
		nb := g.Neighbors(u)
		lo, hi := 0, len(nb)
		for lo < hi {
			mid := (lo + hi) / 2
			if nb[mid] < int32(v) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	// Residual capacity of arc u->v: 1 - flow(u->v) + flow(v->u).
	residual := func(u, v int) int {
		return 1 - int(flow[u][arcIndex(u, v)]) + int(flow[v][arcIndex(v, u)])
	}
	augment := func() bool {
		parent := make([]int32, n)
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = int32(src)
		queue := []int32{int32(src)}
		for head := 0; head < len(queue) && parent[dst] == -1; head++ {
			u := int(queue[head])
			for _, wv := range g.Neighbors(u) {
				v := int(wv)
				if parent[v] == -1 && residual(u, v) > 0 {
					parent[v] = int32(u)
					queue = append(queue, wv)
				}
			}
		}
		if parent[dst] == -1 {
			return false
		}
		for v := dst; v != src; {
			u := int(parent[v])
			// Push one unit along u->v: cancel reverse flow first.
			if flow[v][arcIndex(v, u)] > 0 {
				flow[v][arcIndex(v, u)]--
			} else {
				flow[u][arcIndex(u, v)]++
			}
			v = u
		}
		return true
	}
	count := 0
	for limit <= 0 || count < limit {
		if !augment() {
			break
		}
		count++
	}
	// Decompose: walk flow arcs from src, consuming them.
	var paths [][]int
	for p := 0; p < count; p++ {
		path := []int{src}
		cur := src
		for cur != dst {
			advanced := false
			for k, wv := range g.Neighbors(cur) {
				if flow[cur][k] > 0 {
					flow[cur][k]--
					cur = int(wv)
					path = append(path, cur)
					advanced = true
					break
				}
			}
			if !advanced {
				// Flow conservation guarantees progress; reaching here
				// would mean the flow was not a valid unit flow.
				panic("route: flow decomposition stuck")
			}
		}
		paths = append(paths, path)
	}
	return paths
}
