// Moore-type lower bounds on the average shortest path length of
// degree-bounded graphs — the optimality yardstick of the design-space
// search (internal/search, cmd/pssearch).
//
// From any source of a graph with maximum degree d, at most d vertices
// sit at distance 1, at most d(d−1) at distance 2, and in general at
// most d(d−1)^{i−1} at distance i. Packing the n−1 destinations
// greedily into the nearest layers therefore minorizes the distance sum
// of every source, and averaging gives a lower bound on the ASPL of any
// n-vertex degree-d graph. This layered bound and its diameter-k closed
// forms are the reference used by Shimizu & Mori ("Average shortest
// path length of graphs of diameter 3", arXiv:1606.05119) to normalize
// diameter-3 ASPL, and the yardstick the order/degree-problem community
// reports optimality gaps against; for graphs that fit in three layers
// it specializes to the closed form 3 − d(d+1)/(n−1) once n−1 ≥ d²
// (ASPLDiam3LowerBound, in the tests). Equality holds exactly for
// generalized Moore graphs: all layers full except possibly the last.
package moore

// ASPLLowerBound returns the layered (Moore-type) lower bound on the
// average shortest path length over ordered distinct pairs of any
// connected n-vertex graph with maximum degree d, together with the
// implied diameter lower bound (the number of layers the greedy packing
// needs). It returns (0, 0) when n < 2 or d < 1, and (1, 1) when the
// packing fits in one layer (complete-graph regime).
func ASPLLowerBound(n, d int) (aspl float64, diam int) {
	if n < 2 || d < 1 {
		return 0, 0
	}
	var sum int64        // minorized distance sum from one source
	rest := int64(n - 1) // destinations still to place
	layer := int64(d)    // capacity of the current layer: d(d-1)^{i-1}
	for i := int64(1); rest > 0; i++ {
		take := layer
		if take > rest {
			take = rest
		}
		sum += i * take
		rest -= take
		diam = int(i)
		if layer <= 0 {
			// d = 1 and n > 2: no graph exists; keep the bound finite
			// by stretching into a path-like tail.
			layer = 1
		} else {
			layer *= int64(d - 1)
		}
	}
	return float64(sum) / float64(n-1), diam
}

// ASPLGap quantifies how far a measured ASPL sits above the layered
// lower bound for an (n, d) point, as a fraction of the bound: 0 is a
// generalized Moore graph, 0.01 is one percent above optimal. Returns
// the bound alongside. A negative measured value or an infeasible point
// yields gap = 0.
func ASPLGap(measured float64, n, d int) (gap, bound float64) {
	bound, _ = ASPLLowerBound(n, d)
	if bound <= 0 || measured <= 0 {
		return 0, bound
	}
	return measured/bound - 1, bound
}
