package moore

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"polarstar/internal/topo"
)

func TestMooreBounds(t *testing.T) {
	cases := []struct {
		d, D int
		want int64
	}{
		{3, 2, 10}, // Petersen
		{7, 2, 50}, // Hoffman–Singleton
		{57, 2, 3250},
		{3, 3, 22},
		{15, 3, 3166}, // d³-d²+d+1 = 3375-225+15+1
	}
	for _, c := range cases {
		if got := Bound(c.d, c.D); got != c.want {
			t.Errorf("Bound(%d,%d) = %d, want %d", c.d, c.D, got, c.want)
		}
	}
	for d := 2; d <= 128; d++ {
		if Bound(d, 3) != Diam3Bound(d) {
			t.Errorf("Diam3Bound(%d) mismatch", d)
		}
		if Bound(d, 2) != Diam2Bound(d) {
			t.Errorf("Diam2Bound(%d) mismatch", d)
		}
	}
}

func TestBestPolarStarKnownPoints(t *testing.T) {
	// Radix 15 must include the Table 3 PS-IQ config q=11, d'=3 with
	// 1064 routers as the largest design.
	p := BestPolarStar(15)
	if p.Order != 1064 {
		t.Errorf("BestPolarStar(15).Order = %d, want 1064", p.Order)
	}
	if !strings.Contains(p.Config(), "q=11") {
		t.Errorf("BestPolarStar(15).Config() = %q, want q=11", p.Config())
	}
}

// TestPaperClaimIQWinsExceptFourRadixes reproduces the §7.2 claim: for
// radix in [8,128] the largest PolarStar uses the IQ supernode except at
// radixes 23, 50, 56 and 80, where Paley wins.
func TestPaperClaimIQWinsExceptFourRadixes(t *testing.T) {
	paleyWins := map[int]bool{}
	for r := 8; r <= 128; r++ {
		iq := BestPolarStarKind(r, topo.KindIQ)
		pal := BestPolarStarKind(r, topo.KindPaley)
		if pal.Order > iq.Order {
			paleyWins[r] = true
		}
	}
	want := map[int]bool{23: true, 50: true, 56: true, 80: true}
	for r := range want {
		if !paleyWins[r] {
			t.Errorf("radix %d: expected Paley to beat IQ", r)
		}
	}
	for r := range paleyWins {
		if !want[r] {
			t.Errorf("radix %d: Paley unexpectedly beats IQ", r)
		}
	}
}

func TestEquation1OptimalQ(t *testing.T) {
	// Eq (1): the closed form must match brute-force maximization of
	// (q²+q+1)(2d*−2q) over real q (checked on the integer lattice with
	// unconstrained q, tolerance 1).
	for _, dStar := range []int{10, 20, 40, 64, 100, 128} {
		qOpt := OptimalQ(dStar)
		f := func(q float64) float64 { return (q*q + q + 1) * (2*float64(dStar) - 2*q) }
		// The derivative must vanish at qOpt: compare against neighbors.
		if f(qOpt) < f(qOpt-0.01) || f(qOpt) < f(qOpt+0.01) {
			t.Errorf("d*=%d: Eq(1) q=%f is not a local maximum", dStar, qOpt)
		}
		if approx := 2 * float64(dStar) / 3; math.Abs(qOpt-approx) > 1.0 {
			t.Errorf("d*=%d: OptimalQ=%f deviates from 2d*/3=%f by more than 1", dStar, qOpt, approx)
		}
		// The paper's printed radical differs slightly but stays within
		// one unit of the true maximizer (both ≈ 2d*/3).
		if math.Abs(qOpt-PaperOptimalQ(dStar)) > 1.0 {
			t.Errorf("d*=%d: paper form deviates from maximizer by more than 1", dStar)
		}
	}
}

func TestEquation2MaxOrder(t *testing.T) {
	// Eq (2): plugging the real-valued optimal q into the order formula
	// must match (8d³+12d²+18d)/27 closely, and the actual best feasible
	// PolarStar must approach 8/27 of the Moore bound.
	for _, dStar := range []int{32, 64, 128} {
		got := MaxOrderIQ(dStar)
		q := OptimalQ(dStar)
		f := (q*q + q + 1) * (2*float64(dStar) - 2*q)
		if math.Abs(got-f)/f > 0.02 {
			t.Errorf("d*=%d: Eq(2)=%f vs direct %f", dStar, got, f)
		}
	}
	// Asymptotic Moore efficiency 8/27 ≈ 0.296 (within 25%% at radix 128
	// due to prime-power gaps).
	// 8/27 ≈ 0.296 is the asymptote against d³; against the exact Moore
	// bound d³−d²+d+1 the ratio lands slightly above it.
	p := BestPolarStar(128)
	eff := Efficiency(p.Order, 128, 3)
	if eff < 0.22 || eff > 0.32 {
		t.Errorf("radix-128 efficiency = %f, want near 8/27", eff)
	}
}

func TestGeomeanScaleRatios(t *testing.T) {
	// §1.3 headline claims: 1.3× over Bundlefly, 1.9× over Dragonfly,
	// 6.7× over HyperX (geometric mean, radix 8..128). Allow tolerance:
	// our Bundlefly/Dragonfly maximization may differ slightly from the
	// paper's enumeration.
	h := Headline(8, 128)
	check := func(name string, got, want, tol float64) {
		if math.Abs(got-want) > tol {
			t.Errorf("%s geomean ratio = %.2f, want %.1f ± %.1f", name, got, want, tol)
		}
	}
	check("vs Bundlefly", h.VsBundlefly, 1.3, 0.25)
	check("vs Dragonfly", h.VsDragonfly, 1.9, 0.4)
	check("vs HyperX", h.VsHyperX, 6.7, 1.3)
}

func TestStarMaxDominatesPolarStar(t *testing.T) {
	// PolarStar can never exceed the theoretical star-product bound, and
	// should approach it (§7.2: near-optimal for known factor properties).
	var ratios []float64
	for r := 8; r <= 128; r++ {
		ps, sm := BestPolarStar(r), StarMax(r)
		if !ps.Valid() {
			continue
		}
		if ps.Order > sm.Order {
			t.Errorf("radix %d: PolarStar %d exceeds StarMax %d", r, ps.Order, sm.Order)
		}
		ratios = append(ratios, float64(ps.Order)/float64(sm.Order))
	}
	if g := Geomean(ratios); g < 0.75 {
		t.Errorf("PolarStar/StarMax geomean = %f, want near-optimal (> 0.75)", g)
	}
}

func TestBestDragonflyBalanced(t *testing.T) {
	// The canonical maximum Dragonfly uses a ≈ 2h; check radix 17
	// (Table 3 uses a=12, h=6 — exactly the maximizer).
	p := BestDragonfly(17)
	if p.Config() != "a=12 h=6" || p.Order != 876 {
		t.Errorf("BestDragonfly(17) = %+v, want a=12 h=6, 876", p)
	}
}

func TestBestHyperX3DBalanced(t *testing.T) {
	p := BestHyperX3D(23)
	if p.Order != 648 {
		t.Errorf("BestHyperX3D(23).Order = %d, want 648 (9x9x8)", p.Order)
	}
}

// TestPointGraphOrder: a constructible design point builds a graph of
// exactly its closed-form order from its typed parameters; a closed-form
// family has no construction.
func TestPointGraphOrder(t *testing.T) {
	for _, p := range []Point{BestPolarStar(11), BestPolarStarKind(12, topo.KindPaley),
		BestBundlefly(11), BestDragonfly(9), BestHyperX3D(10)} {
		g, err := p.Graph()
		if err != nil {
			t.Errorf("%s: %v", p.Config(), err)
			continue
		}
		if int64(g.N()) != p.Order {
			t.Errorf("%s: built %d routers, want %d", p.Config(), g.N(), p.Order)
		}
	}
	if _, err := StarMax(10).Graph(); err == nil {
		t.Error("a StarMax point built a graph")
	}
}

func TestKautzPoints(t *testing.T) {
	p := KautzDiam3(24)
	if p.Order != 13*144 {
		t.Errorf("KautzDiam3(24).Order = %d, want 1872", p.Order)
	}
	if KautzDiam3(23).Valid() {
		t.Error("odd radix should have no bidirectional Kautz point")
	}
}

func TestFig4Points(t *testing.T) {
	er := BestERPoint(8) // q=7: 57 vertices
	if er.Order != 57 {
		t.Errorf("BestERPoint(8).Order = %d, want 57", er.Order)
	}
	if BestERPoint(7).Valid() {
		t.Error("radix 7 needs q=6, not a prime power")
	}
	mms := BestMMSPoint(7) // q=5: Hoffman–Singleton
	if mms.Order != 50 {
		t.Errorf("BestMMSPoint(7).Order = %d, want 50", mms.Order)
	}
	pal := PaleyPoint(6) // q=13
	if pal.Order != 13 {
		t.Errorf("PaleyPoint(6).Order = %d, want 13", pal.Order)
	}
	if PaleyPoint(5).Valid() {
		t.Error("odd-degree Paley point should be infeasible")
	}
}

func TestPolarStarConfigsEveryRadix(t *testing.T) {
	// §1.3: PolarStar exists with multiple configurations for every radix
	// in [8, 128].
	for r := 8; r <= 128; r++ {
		cfgs := PolarStarConfigs(r)
		if len(cfgs) < 2 {
			t.Errorf("radix %d: only %d configurations", r, len(cfgs))
		}
		for i := 1; i < len(cfgs); i++ {
			if cfgs[i].Order > cfgs[i-1].Order {
				t.Fatalf("radix %d: configs not sorted", r)
			}
		}
	}
}

func TestWriteFigures(t *testing.T) {
	var buf bytes.Buffer
	WriteFig1(&buf, Fig1(15, 17))
	if !strings.Contains(buf.String(), "1064") {
		t.Error("Fig1 output missing the radix-15 PolarStar point")
	}
	buf.Reset()
	WriteFig4(&buf, Fig4(7, 8))
	if !strings.Contains(buf.String(), "50 (MMS_5)") {
		t.Error("Fig4 output missing Hoffman–Singleton")
	}
	buf.Reset()
	WriteFig7(&buf, 15, 15)
	if !strings.Contains(buf.String(), "1064") {
		t.Error("Fig7 output missing largest radix-15 order")
	}
	if !strings.Contains(Table1, "PolarStar") {
		t.Error("Table1 missing PolarStar row")
	}
}

func TestSpectralflySmallDesignPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Radix 6 → p=5: X^{5,13} has 2184 vertices; diameter exceeds 3, so
	// the largest diameter-3 point at radix 6 is a smaller q (if any).
	p := SpectralflyDiam3(6, 3000)
	if p.Valid() && p.Order > 3000 {
		t.Errorf("cap violated: %+v", p)
	}
	// Radix 7 → p=6 not prime: no point.
	if SpectralflyDiam3(7, 3000).Valid() {
		t.Error("radix 7 should have no LPS point")
	}
}

// Efficiency returns order / Moore bound for the given radix and diameter.
func Efficiency(order int64, radix, diameter int) float64 {
	if order <= 0 {
		return 0
	}
	return float64(order) / float64(Bound(radix, diameter))
}

// OptimalQ returns the real-valued maximizer of the PolarStar-IQ order
// (q²+q+1)(2d*−2q) over q for fixed product degree dStar:
//
//	q* = ((d*−1) + sqrt((d*−1)(d*+2))) / 3  ≈  2d*/3.
//
// The paper's Equation (1) prints sqrt((d*−1)(d*−2)); setting the
// derivative −6q² + (2d*−2)·2q + 2(d*−1) = 0 gives (d*+2) in the
// radical. Both forms agree with 2d*/3 to within one unit for all
// relevant radixes; see EXPERIMENTS.md (E18) for the note.
func OptimalQ(dStar int) float64 {
	d := float64(dStar)
	return ((d - 1) + math.Sqrt((d-1)*(d+2))) / 3
}

// PaperOptimalQ returns Equation (1) exactly as printed in the paper,
// kept for comparison against OptimalQ.
func PaperOptimalQ(dStar int) float64 {
	d := float64(dStar)
	return ((d - 1) + math.Sqrt((d-1)*(d-2))) / 3
}

// MaxOrderIQ returns Equation (2): the asymptotic maximum PolarStar-IQ
// order (8d*³ + 12d*² + 18d*)/27 for radix dStar.
func MaxOrderIQ(dStar int) float64 {
	d := float64(dStar)
	return (8*d*d*d + 12*d*d + 18*d) / 27
}

// BenchmarkEq1Eq2ClosedForms is E18: Equation (1)'s optimal q against
// its 2d*/3 asymptote, and Equation (2) at radix 64.
func BenchmarkEq1Eq2ClosedForms(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for d := 8; d <= 128; d++ {
			q := OptimalQ(d)
			if dev := math.Abs(q - 2*float64(d)/3); dev > worst {
				worst = dev
			}
		}
	}
	b.ReportMetric(worst, "max_dev_from_2d3")
	b.ReportMetric(MaxOrderIQ(64), "eq2_at_64")
}
