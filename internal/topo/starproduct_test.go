package topo

import (
	"testing"
	"testing/quick"
)

func TestStarProductOrderAndDegree(t *testing.T) {
	// §4.3 facts: |V(G*)| = |V(G)|·|V(G')|, deg ≤ deg(G)+deg(G').
	er := must(NewER(3))
	iq := must(NewIQ(3))
	p := StarProduct("test", er.G, iq, iq.F)
	if p.N() != er.N()*iq.N() {
		t.Errorf("order = %d, want %d", p.N(), er.N()*iq.N())
	}
	maxDeg := er.Degree() + iq.Degree()
	if p.MaxDegree() > maxDeg {
		t.Errorf("max degree = %d, want <= %d", p.MaxDegree(), maxDeg)
	}
}

func TestStarProductEdgeStructure(t *testing.T) {
	er := must(NewER(3))
	iq := must(NewIQ(3))
	p := StarProduct("test", er.G, iq, iq.F)
	np := iq.N()
	for _, e := range p.Edges() {
		x, xp := e[0]/np, e[0]%np
		y, yp := e[1]/np, e[1]%np
		switch {
		case x == y:
			// Intra edges come from E(G') or from a structure self-loop
			// pairing x' with f(x').
			if !iq.G.HasEdge(xp, yp) && !(er.IsQuadric(x) && (iq.F[xp] == yp || iq.F[yp] == xp)) {
				t.Fatalf("invalid intra edge (%d,%d)-(%d,%d)", x, xp, y, yp)
			}
		default:
			// Inter edges require a structure edge and the bijection.
			if !er.G.HasEdge(x, y) {
				t.Fatalf("inter edge without structure edge: %d-%d", x, y)
			}
			if iq.F[xp] != yp && iq.F[yp] != xp {
				t.Fatalf("inter edge violates bijection: (%d,%d)-(%d,%d)", x, xp, y, yp)
			}
		}
	}
}

func TestStarProductInterLinkCount(t *testing.T) {
	// §8: adjacent supernodes are joined by a bundle of |V(G')| links
	// (one per supernode vertex, since f is a bijection).
	er := must(NewER(3))
	pal := must(NewPaleySupernode(2))
	p := StarProduct("test", er.G, pal, pal.F)
	np := pal.N()
	count := make(map[[2]int]int)
	for _, e := range p.Edges() {
		x, y := e[0]/np, e[1]/np
		if x != y {
			if x > y {
				x, y = y, x
			}
			count[[2]int{x, y}]++
		}
	}
	for pair, c := range count {
		if c != np {
			t.Fatalf("supernode pair %v joined by %d links, want %d", pair, c, np)
		}
	}
	if len(count) != er.G.M() {
		t.Errorf("bundles = %d, want %d structure edges", len(count), er.G.M())
	}
}

// TestTheorem4Diameter3 is the paper's central claim: ER_q * IQ_d' has
// diameter at most 3 when f is the R* involution (Theorem 4 with D = 2).
func TestTheorem4Diameter3(t *testing.T) {
	cases := []struct{ q, d int }{
		{2, 0}, {2, 3}, {2, 4}, {3, 0}, {3, 3}, {3, 4}, {3, 7},
		{4, 3}, {4, 4}, {5, 3}, {5, 4}, {7, 3}, {8, 4}, {9, 3},
	}
	for _, c := range cases {
		ps := MustNewPolarStar(c.q, c.d, KindIQ)
		stats := ps.G.AllPairsStats()
		if !stats.Connected {
			t.Errorf("PolarStar-IQ(q=%d,d'=%d) disconnected", c.q, c.d)
			continue
		}
		if stats.Diameter > 3 {
			t.Errorf("PolarStar-IQ(q=%d,d'=%d) diameter = %d, want <= 3", c.q, c.d, stats.Diameter)
		}
	}
}

// TestTheorem5Diameter3 checks the R1 (Paley supernode) route to
// diameter 3.
func TestTheorem5Diameter3(t *testing.T) {
	cases := []struct{ q, d int }{
		{2, 2}, {3, 2}, {3, 4}, {4, 2}, {5, 4}, {7, 6}, {8, 6}, {9, 4},
	}
	for _, c := range cases {
		ps := MustNewPolarStar(c.q, c.d, KindPaley)
		stats := ps.G.AllPairsStats()
		if !stats.Connected || stats.Diameter > 3 {
			t.Errorf("PolarStar-Paley(q=%d,d'=%d) diameter = %d connected=%v, want <= 3",
				c.q, c.d, stats.Diameter, stats.Connected)
		}
	}
}

// TestStarProductBDFDiameter3: the BDF-style R* supernode must also give
// diameter-3 products.
func TestStarProductBDFDiameter3(t *testing.T) {
	for _, c := range []struct{ q, d int }{{3, 2}, {3, 5}, {4, 4}, {5, 3}} {
		ps := MustNewPolarStar(c.q, c.d, KindBDF)
		if d := ps.G.Diameter(); d > 3 || d < 0 {
			t.Errorf("ER_%d*BDF_%d diameter = %d, want <= 3", c.q, c.d, d)
		}
	}
}

func TestPolarStarMetadata(t *testing.T) {
	ps := MustNewPolarStar(5, 4, KindIQ)
	if ps.Radix() != 10 {
		t.Errorf("radix = %d, want 10", ps.Radix())
	}
	if ps.NumGroups() != 31 {
		t.Errorf("groups = %d, want 31", ps.NumGroups())
	}
	if ps.G.N() != 31*10 {
		t.Errorf("order = %d, want 310", ps.G.N())
	}
	for v := 0; v < ps.G.N(); v++ {
		x, xp := ps.GroupOf(v), ps.LocalOf(v)
		if ps.VertexAt(x, xp) != v {
			t.Fatalf("coordinate round-trip failed at %d", v)
		}
	}
	// Every vertex's radix must not exceed the nominal radix.
	if ps.G.MaxDegree() > ps.Radix() {
		t.Errorf("max degree %d exceeds radix %d", ps.G.MaxDegree(), ps.Radix())
	}
}

func TestPolarStarOrderFormula(t *testing.T) {
	cases := []struct {
		q, d int
		kind SupernodeKind
		want int
	}{
		{11, 3, KindIQ, 133 * 8},   // Table 3 PS-IQ: 1064 routers
		{8, 6, KindPaley, 73 * 13}, // Table 3 PS-Pal (see EXPERIMENTS.md note)
		{5, 4, KindIQ, 310},
		{6, 4, KindIQ, 0}, // q=6 not a prime power
		{5, 5, KindIQ, 0}, // d'=5 infeasible for IQ
		{5, 3, KindPaley, 0},
	}
	for _, c := range cases {
		if got := PolarStarOrder(c.q, c.d, c.kind); got != c.want {
			t.Errorf("PolarStarOrder(%d,%d,%v) = %d, want %d", c.q, c.d, c.kind, got, c.want)
		}
	}
}

func TestPolarStarOrderMatchesConstruction(t *testing.T) {
	for _, c := range []struct {
		q, d int
		kind SupernodeKind
	}{{3, 3, KindIQ}, {4, 4, KindIQ}, {5, 2, KindPaley}, {4, 3, KindBDF}} {
		ps := MustNewPolarStar(c.q, c.d, c.kind)
		want := 0
		switch c.kind {
		case KindBDF:
			want = (c.q*c.q + c.q + 1) * 2 * c.d
		default:
			want = PolarStarOrder(c.q, c.d, c.kind)
		}
		if ps.G.N() != want {
			t.Errorf("%v order = %d, want %d", ps.G, ps.G.N(), want)
		}
	}
}

// TestQuickRandomStarProducts: property-based check over random feasible
// parameters — every constructible PolarStar must be connected with
// diameter ≤ 3 and max degree ≤ radix.
func TestQuickRandomStarProducts(t *testing.T) {
	qs := []int{2, 3, 4, 5, 7}
	prop := func(qi, di, ki uint8) bool {
		q := qs[int(qi)%len(qs)]
		kind := []SupernodeKind{KindIQ, KindPaley, KindBDF}[int(ki)%3]
		var dPrime int
		switch kind {
		case KindIQ:
			dPrime = []int{0, 3, 4, 7}[int(di)%4]
		case KindPaley:
			dPrime = []int{2, 4, 6}[int(di)%3]
		default:
			dPrime = 1 + int(di)%6
		}
		ps, err := NewPolarStar(q, dPrime, kind)
		if err != nil {
			return false
		}
		stats := ps.G.AllPairsStats()
		return stats.Connected && stats.Diameter <= 3 && ps.G.MaxDegree() <= ps.Radix()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestStarProductRegularityBreakdown: quadric supernodes gain the
// loop-induced edges, so their vertices reach full radix; non-quadric
// supernode vertices sit one below. This mirrors Fig 5(c).
func TestStarProductLoopEdges(t *testing.T) {
	er := must(NewER(3))
	iq := must(NewIQ(3))
	ps := MustNewPolarStar(3, 3, KindIQ)
	np := iq.N()
	for x := 0; x < er.N(); x++ {
		for xp := 0; xp < np; xp++ {
			v := x*np + xp
			hasLoopEdge := ps.G.HasEdge(v, x*np+iq.F[xp])
			if er.IsQuadric(x) && !hasLoopEdge {
				t.Fatalf("quadric supernode %d missing loop edge at %d", x, v)
			}
			if !er.IsQuadric(x) && hasLoopEdge && !iq.G.HasEdge(xp, iq.F[xp]) {
				t.Fatalf("non-quadric supernode %d has spurious loop edge at %d", x, v)
			}
		}
	}
}
