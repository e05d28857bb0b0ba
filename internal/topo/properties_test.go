package topo

import (
	"fmt"
	"testing"

	"polarstar/internal/graph"
)

// HasPropertyR1 reports whether (g, f) satisfies Property R1 (§5.1.2,
// Bermond et al.): f is a bijection, f² is an automorphism of g, and
// E ∪ f(E) is the complete edge set on V(g).
func HasPropertyR1(g *graph.Graph, f []int) bool {
	_, _, ok := PropertyR1Witness(g, f)
	return ok
}

// PropertyR1Witness is HasPropertyR1 with a counterexample: on failure
// it returns the first violating vertex pair — the edge f² fails to
// preserve, or the pair E ∪ f(E) leaves uncovered. On success both are
// -1.
func PropertyR1Witness(g *graph.Graph, f []int) (x, y int, ok bool) {
	n := g.N()
	if len(f) != n {
		return -1, -1, false
	}
	seen := make([]bool, n)
	for x, y := range f {
		if y < 0 || y >= n || seen[y] {
			return x, y, false // not a bijection
		}
		seen[y] = true
	}
	// f² an automorphism: (x,y) ∈ E iff (f²(x), f²(y)) ∈ E.
	for x := 0; x < n; x++ {
		for _, w := range g.Neighbors(x) {
			if !g.HasEdge(f[f[x]], f[f[int(w)]]) {
				return x, int(w), false
			}
		}
	}
	// E ∪ f(E) complete.
	covered := make(map[[2]int]bool)
	mark := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		covered[[2]int{u, v}] = true
	}
	for _, e := range g.Edges() {
		mark(e[0], e[1])
		mark(f[e[0]], f[e[1]])
	}
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			if !covered[[2]int{x, y}] {
				return x, y, false
			}
		}
	}
	return -1, -1, true
}

// VerifySupernode checks the structural claims of Table 2 for a supernode:
// the order formula and the relevant property.
func VerifySupernode(kind SupernodeKind, s *Supernode, degree int) error {
	if want := SupernodeOrder(kind, degree); s.N() != want {
		return fmt.Errorf("%v degree %d: order %d, want %d", kind, degree, s.N(), want)
	}
	switch kind {
	case KindIQ, KindBDF:
		if !HasPropertyRStar(s.G, s.F) {
			return fmt.Errorf("%v degree %d: Property R* violated", kind, degree)
		}
	case KindPaley:
		if !HasPropertyR1(s.G, s.F) {
			return fmt.Errorf("%v degree %d: Property R1 violated", kind, degree)
		}
	case KindComplete:
		if !HasPropertyRStar(s.G, s.F) || !HasPropertyR1(s.G, s.F) {
			return fmt.Errorf("%v degree %d: properties violated", kind, degree)
		}
	}
	return nil
}

// BenchmarkTable2Supernodes is E5 (Table 2, supernode families): it
// builds each family and verifies its order formula and property.
func BenchmarkTable2Supernodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			kind SupernodeKind
			d    int
		}{{KindIQ, 8}, {KindIQ, 11}, {KindPaley, 6}, {KindBDF, 9}, {KindComplete, 9}} {
			s, err := NewSupernode(c.kind, c.d)
			if err != nil {
				b.Fatal(err)
			}
			if err := VerifySupernode(c.kind, s, c.d); err != nil {
				b.Fatal(err)
			}
		}
	}
}
