package moore

import (
	"math"
	"testing"

	"polarstar/internal/topo"
)

func TestASPLLowerBoundSmallCases(t *testing.T) {
	// K_n: every pair at distance 1, bound must be exactly 1 and tight.
	if aspl, diam := ASPLLowerBound(5, 4); aspl != 1 || diam != 1 {
		t.Errorf("K5 bound = (%v,%d), want (1,1)", aspl, diam)
	}
	// Petersen graph parameters (n=10, d=3) form a Moore graph of
	// diameter 2: bound = (3·1 + 6·2)/9 = 5/3, tight.
	if aspl, diam := ASPLLowerBound(10, 3); math.Abs(aspl-5.0/3.0) > 1e-15 || diam != 2 {
		t.Errorf("Petersen bound = (%v,%d), want (5/3,2)", aspl, diam)
	}
	// Degenerate inputs.
	if aspl, diam := ASPLLowerBound(1, 3); aspl != 0 || diam != 0 {
		t.Errorf("n=1 bound = (%v,%d), want (0,0)", aspl, diam)
	}
	if aspl, diam := ASPLLowerBound(2, 1); aspl != 1 || diam != 1 {
		t.Errorf("K2 bound = (%v,%d), want (1,1)", aspl, diam)
	}
}

func TestASPLDiam3ClosedFormMatchesLayered(t *testing.T) {
	for _, tc := range [][2]int{{50, 7}, {98, 7}, {168, 8}, {1024, 16}, {1330, 17}, {4096, 31}} {
		n, d := tc[0], tc[1]
		cf, ok := ASPLDiam3LowerBound(n, d)
		if !ok {
			t.Fatalf("(%d,%d): closed form unexpectedly infeasible", n, d)
		}
		layered, diam := ASPLLowerBound(n, d)
		if math.Abs(cf-layered) > 1e-12 {
			t.Errorf("(%d,%d): closed form %v != layered %v", n, d, cf, layered)
		}
		if diam > 3 {
			t.Errorf("(%d,%d): layered diameter %d > 3 despite 3-layer fit", n, d, diam)
		}
		// Closed-form algebra check in the full-inner-layer regime.
		if n-1 >= d*d {
			want := 3 - float64(d)*float64(d+1)/float64(n-1)
			if math.Abs(cf-want) > 1e-12 {
				t.Errorf("(%d,%d): closed form %v != 3-d(d+1)/(n-1) = %v", n, d, cf, want)
			}
		}
	}
	// Beyond three layers the closed form must refuse.
	if _, ok := ASPLDiam3LowerBound(1000, 3); ok {
		t.Error("(1000,3) fits three layers? capacity is 3+6+12")
	}
}

// TestASPLBoundIsValid checks the bound really minorizes measured ASPL
// on actual diameter-3 topologies from the paper's families.
func TestASPLBoundIsValid(t *testing.T) {
	er, err := topo.NewER(7)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := topo.NewPolarStar(4, 3, topo.KindIQ)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*struct {
		name string
		n, d int
		aspl float64
	}{
		{er.G.Name(), er.G.N(), er.G.MaxDegree(), er.G.AllPairsStats().AvgPath},
		{ps.G.Name(), ps.G.N(), ps.G.MaxDegree(), ps.G.AllPairsStats().AvgPath},
	} {
		bound, _ := ASPLLowerBound(g.n, g.d)
		if g.aspl < bound-1e-12 {
			t.Errorf("%s: measured ASPL %v below lower bound %v", g.name, g.aspl, bound)
		}
		gap, b2 := ASPLGap(g.aspl, g.n, g.d)
		if b2 != bound || gap < 0 {
			t.Errorf("%s: gap %v / bound %v inconsistent", g.name, gap, b2)
		}
		if gap > 0.25 {
			t.Errorf("%s: gap %v implausibly large for a paper topology", g.name, gap)
		}
	}
}

func TestASPLGapDegenerate(t *testing.T) {
	if gap, _ := ASPLGap(-1, 100, 10); gap != 0 {
		t.Errorf("negative measurement gap = %v, want 0", gap)
	}
	if gap, bound := ASPLGap(2.5, 1, 10); gap != 0 || bound != 0 {
		t.Errorf("n=1 gap = (%v,%v), want (0,0)", gap, bound)
	}
}

// ASPLDiam3LowerBound returns the three-layer specialization of the
// layered bound, the form Shimizu & Mori study for diameter-3 graphs:
// when the order fits in three layers (n − 1 ≤ d + d(d−1) + d(d−1)²)
// the first two layers pack full and the remainder sits at distance 3,
// so
//
//	ASPL ≥ (d + 2d(d−1) + 3(n−1−d²)) / (n−1) = 3 − d(d+1)/(n−1) − [small-n terms]
//
// with the bracket vanishing once n−1 ≥ d² (both inner layers full; the
// code packs the layers directly rather than trusting the algebra). ok
// is false when n exceeds the three-layer capacity — the closed form
// does not apply; use ASPLLowerBound.
func ASPLDiam3LowerBound(n, d int) (aspl float64, ok bool) {
	if n < 2 || d < 1 {
		return 0, false
	}
	l1 := int64(d)
	l2 := int64(d) * int64(d-1)
	l3 := l2 * int64(d-1)
	rest := int64(n - 1)
	if rest > l1+l2+l3 {
		return 0, false
	}
	sum := int64(0)
	for i, layer := range [3]int64{l1, l2, l3} {
		take := layer
		if take > rest {
			take = rest
		}
		sum += int64(i+1) * take
		rest -= take
	}
	return float64(sum) / float64(n-1), true
}
