package topo

import "polarstar/internal/graph"

// The paper's factor-graph properties (§5.1), implemented as exhaustive
// checkers. They are used by the test suite to validate every construction
// and by the design-space explorer to reject invalid factor combinations;
// Property R1 and the Table 2 check, which only tests run, live in
// properties_test.go.

// HasPropertyR reports whether g (of diameter D) joins every vertex pair
// by a walk of length exactly D, where self-loop annotations may be used
// as walk steps (§5.1.1). It returns the diameter it verified against.
func HasPropertyR(g *graph.Graph, D int) bool {
	_, _, ok := PropertyRWitness(g, D)
	return ok
}

// PropertyRWitness is HasPropertyR with a counterexample: on failure it
// returns the first (src, dst) pair joined by no walk of length exactly
// D. On success src and dst are -1.
func PropertyRWitness(g *graph.Graph, D int) (src, dst int, ok bool) {
	// reach[v] after k rounds: set of vertices reachable from src by a
	// walk of length exactly k (loops allowed).
	n := g.N()
	cur := make([]bool, n)
	next := make([]bool, n)
	for src := 0; src < n; src++ {
		for i := range cur {
			cur[i] = false
		}
		cur[src] = true
		for step := 0; step < D; step++ {
			for i := range next {
				next[i] = false
			}
			for v := 0; v < n; v++ {
				if !cur[v] {
					continue
				}
				for _, w := range g.Neighbors(v) {
					next[w] = true
				}
				if g.HasLoop(v) {
					next[v] = true
				}
			}
			cur, next = next, cur
		}
		for v := 0; v < n; v++ {
			if !cur[v] {
				return src, v, false
			}
		}
	}
	return -1, -1, true
}

// HasPropertyRStar reports whether (g, f) satisfies Property R* (§5.1.2):
// f is an involution, and every vertex pair (x, y) satisfies x == y,
// y == f(x), (x,y) ∈ E, or (f(x), f(y)) ∈ E.
func HasPropertyRStar(g *graph.Graph, f []int) bool {
	_, _, ok := PropertyRStarWitness(g, f)
	return ok
}

// PropertyRStarWitness is HasPropertyRStar with a counterexample: on
// failure it returns the first violating vertex pair — (x, f(x)) when f
// is not an involution at x, else the (x, y) pair covered by none of the
// Property R* clauses. On success both are -1.
func PropertyRStarWitness(g *graph.Graph, f []int) (x, y int, ok bool) {
	n := g.N()
	if len(f) != n {
		return -1, -1, false
	}
	for x := 0; x < n; x++ {
		if f[x] < 0 || f[x] >= n || f[f[x]] != x {
			return x, f[x], false // not an involution
		}
	}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x == y || y == f[x] || g.HasEdge(x, y) || g.HasEdge(f[x], f[y]) {
				continue
			}
			return x, y, false
		}
	}
	return -1, -1, true
}
