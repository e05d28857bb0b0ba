package topo

import (
	"testing"

	"polarstar/internal/graph"
)

func TestIQFeasible(t *testing.T) {
	want := map[int]bool{0: true, 1: false, 2: false, 3: true, 4: true, 5: false, 6: false, 7: true, 8: true, 11: true, 12: true, 15: true, 16: true}
	for d, w := range want {
		if IQFeasible(d) != w {
			t.Errorf("IQFeasible(%d) = %v, want %v", d, !w, w)
		}
	}
}

func TestIQOrderDegreeAndPropertyRStar(t *testing.T) {
	// Proposition 2 / Corollary 3: IQ_d' has 2d'+2 vertices, is
	// d'-regular, and satisfies Property R* — the order meets the upper
	// bound, so no larger R* supernode exists.
	for d := 0; d <= 43; d++ {
		if !IQFeasible(d) {
			continue
		}
		s := must(NewIQ(d))
		if s.N() != 2*d+2 {
			t.Errorf("IQ_%d order = %d, want %d", d, s.N(), 2*d+2)
		}
		if s.G.MaxDegree() != d || s.G.MinDegree() != d {
			t.Errorf("IQ_%d degrees = [%d,%d], want %d-regular", d, s.G.MinDegree(), s.G.MaxDegree(), d)
		}
		if !HasPropertyRStar(s.G, s.F) {
			t.Errorf("IQ_%d lacks Property R*", d)
		}
		// f must be a fixed-point-free involution for IQ.
		for v := 0; v < s.N(); v++ {
			if s.F[v] == v {
				t.Errorf("IQ_%d: f has fixed point %d", d, v)
			}
		}
	}
}

func TestIQInfeasibleDegrees(t *testing.T) {
	for _, d := range []int{1, 2, 5, 6, 9, 10, -1} {
		if _, err := NewIQ(d); err == nil {
			t.Errorf("NewIQ(%d) succeeded, want error", d)
		}
	}
}

func TestPaleyFeasible(t *testing.T) {
	// d' even and 2d'+1 a prime power ≡ 1 mod 4: d'=2 (q=5), 4 (9),
	// 6 (13), 8 (17), 12 (25), 14 (29). d'=10 gives q=21=3·7, infeasible.
	want := map[int]bool{2: true, 4: true, 6: true, 8: true, 10: false, 12: true, 14: true, 3: false, 5: false, 0: false}
	for d, w := range want {
		if PaleyFeasible(d) != w {
			t.Errorf("PaleyFeasible(%d) = %v, want %v", d, !w, w)
		}
	}
}

func TestPaleySupernodeR1(t *testing.T) {
	for _, d := range []int{2, 4, 6, 8, 12, 14, 20} {
		s := must(NewPaleySupernode(d))
		if s.N() != 2*d+1 {
			t.Errorf("Paley d'=%d order = %d, want %d", d, s.N(), 2*d+1)
		}
		if s.G.MaxDegree() != d || s.G.MinDegree() != d {
			t.Errorf("Paley d'=%d not %d-regular", d, d)
		}
		if !HasPropertyR1(s.G, s.F) {
			t.Errorf("Paley d'=%d lacks Property R1", d)
		}
		if d := s.G.Diameter(); d != 2 {
			t.Errorf("Paley diameter = %d, want 2", d)
		}
	}
}

func TestPaleySymmetricAdjacency(t *testing.T) {
	// q ≡ 1 mod 4 makes -1 a residue, so x-y and y-x agree; the graph
	// builder would otherwise silently dedupe an asymmetric relation.
	g, err := NewPaleyGraph(13)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 13*6/2 {
		t.Errorf("Paley(13) edges = %d, want 39", g.M())
	}
	if _, err := NewPaleyGraph(7); err == nil {
		t.Error("Paley(7) should be rejected (7 ≡ 3 mod 4)")
	}
	if _, err := NewPaleyGraph(15); err == nil {
		t.Error("Paley(15) should be rejected (not a prime power)")
	}
}

func TestBDFSupernode(t *testing.T) {
	for d := 1; d <= 24; d++ {
		s, err := NewBDF(d)
		if err != nil {
			t.Fatalf("NewBDF(%d): %v", d, err)
		}
		if s.N() != 2*d {
			t.Errorf("BDF d'=%d order = %d, want %d", d, s.N(), 2*d)
		}
		if s.G.MaxDegree() > d {
			t.Errorf("BDF d'=%d max degree = %d > %d", d, s.G.MaxDegree(), d)
		}
		if !HasPropertyRStar(s.G, s.F) {
			t.Errorf("BDF d'=%d lacks Property R*", d)
		}
	}
	if _, err := NewBDF(0); err == nil {
		t.Error("NewBDF(0) should fail")
	}
}

func TestCompleteSupernode(t *testing.T) {
	for _, d := range []int{0, 1, 3, 5, 9} {
		s, err := NewCompleteSupernode(d)
		if err != nil {
			t.Fatal(err)
		}
		if s.N() != d+1 {
			t.Errorf("K d'=%d order = %d", d, s.N())
		}
		if !HasPropertyRStar(s.G, s.F) {
			t.Errorf("complete d'=%d lacks R*", d)
		}
		if !HasPropertyR1(s.G, s.F) {
			t.Errorf("complete d'=%d lacks R1", d)
		}
	}
}

func TestSupernodeOrderFormulas(t *testing.T) {
	// Table 2 order column.
	cases := []struct {
		kind SupernodeKind
		d    int
		want int
	}{
		{KindIQ, 3, 8}, {KindIQ, 4, 10}, {KindIQ, 7, 16}, {KindIQ, 5, 0},
		{KindPaley, 6, 13}, {KindPaley, 10, 0}, {KindPaley, 2, 5},
		{KindBDF, 5, 10}, {KindComplete, 4, 5},
	}
	for _, c := range cases {
		if got := SupernodeOrder(c.kind, c.d); got != c.want {
			t.Errorf("SupernodeOrder(%v, %d) = %d, want %d", c.kind, c.d, got, c.want)
		}
	}
}

func TestVerifySupernodeAllKinds(t *testing.T) {
	cases := []struct {
		kind SupernodeKind
		d    int
	}{
		{KindIQ, 3}, {KindIQ, 8}, {KindPaley, 6}, {KindBDF, 7}, {KindComplete, 5},
	}
	for _, c := range cases {
		s, err := NewSupernode(c.kind, c.d)
		if err != nil {
			t.Fatalf("NewSupernode(%v,%d): %v", c.kind, c.d, err)
		}
		if err := VerifySupernode(c.kind, s, c.d); err != nil {
			t.Error(err)
		}
	}
}

// TestRStarOrderBound verifies Proposition 2 negatively: adding even one
// extra vertex beyond 2d'+2 must break Property R* for any involution.
// We check the specific case d'=3 by brute force over all involutions of
// a 10-vertex graph built from IQ_3 plus two isolated extras.
func TestRStarOrderBound(t *testing.T) {
	s := must(NewIQ(3))
	// Extend to 10 vertices with two isolated vertices; no involution can
	// rescue Property R* because vertex 8's non-edges to 6 other vertices
	// exceed the 2 + deg + deg budget. A targeted check: reuse f with
	// 8<->9 swapped in.
	f := append(append([]int{}, s.F...), 9, 8)
	b := graph.NewBuilder("IQ3+2", s.N()+2)
	for _, e := range s.G.Edges() {
		b.AddEdge(e[0], e[1])
	}
	if HasPropertyRStar(b.Build(), f) {
		t.Error("Property R* held beyond the 2d'+2 bound")
	}
}

// TestRStarBoundExhaustiveSmallDegrees verifies the Proposition 2 order
// bound negatively and exhaustively for tiny degrees: there is NO graph
// with maximum degree d' on 2d'+3 vertices satisfying Property R* with
// any involution, for d' = 0 and d' = 1.
func TestRStarBoundExhaustiveSmallDegrees(t *testing.T) {
	for _, dPrime := range []int{0, 1} {
		n := 2*dPrime + 3
		// Enumerate all graphs on n vertices with max degree <= d'.
		pairs := [][2]int{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, [2]int{i, j})
			}
		}
		// Enumerate all involutions of [0, n).
		var involutions [][]int
		var buildInv func(f []int, v int)
		buildInv = func(f []int, v int) {
			if v == n {
				involutions = append(involutions, append([]int{}, f...))
				return
			}
			if f[v] != -1 {
				buildInv(f, v+1)
				return
			}
			f[v] = v // fixed point
			buildInv(f, v+1)
			for w := v + 1; w < n; w++ {
				if f[w] == -1 {
					f[v], f[w] = w, v
					buildInv(f, v+1)
					f[w] = -1
				}
			}
			f[v] = -1
		}
		init := make([]int, n)
		for i := range init {
			init[i] = -1
		}
		buildInv(init, 0)

		for mask := 0; mask < 1<<len(pairs); mask++ {
			b := graph.NewBuilder("cand", n)
			ok := true
			deg := make([]int, n)
			for i, p := range pairs {
				if mask&(1<<i) != 0 {
					deg[p[0]]++
					deg[p[1]]++
					if deg[p[0]] > dPrime || deg[p[1]] > dPrime {
						ok = false
						break
					}
					b.AddEdge(p[0], p[1])
				}
			}
			if !ok {
				continue
			}
			g := b.Build()
			for _, f := range involutions {
				if HasPropertyRStar(g, f) {
					t.Fatalf("d'=%d: found R* graph on %d vertices (mask %d, f %v) — bound violated",
						dPrime, n, mask, f)
				}
			}
		}
	}
}
