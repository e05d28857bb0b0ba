package polarstar_test

import (
	"context"
	"testing"
	"testing/quick"

	"polarstar"
)

// TestFacadeQuickstart exercises the documented public-API flow.
func TestFacadeQuickstart(t *testing.T) {
	ps, err := polarstar.New(5, 4, polarstar.IQ)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Radix() != 10 || ps.G.N() != 310 {
		t.Fatalf("unexpected instance: radix %d n %d", ps.Radix(), ps.G.N())
	}
	stats := ps.G.AllPairsStats()
	if !stats.Connected || stats.Diameter > 3 {
		t.Fatalf("diameter guarantee violated: %+v", stats)
	}
	router := polarstar.NewMinRouter(ps)
	rng := polarstar.RandomSource(1)
	for i := 0; i < 100; i++ {
		src, dst := rng.Intn(ps.G.N()), rng.Intn(ps.G.N())
		path := polarstar.Route(router, src, dst, rng)
		if src != dst && !polarstar.ValidPath(ps.G, path) {
			t.Fatalf("invalid path %v", path)
		}
	}
}

func TestFacadeInfeasibleParams(t *testing.T) {
	if _, err := polarstar.New(6, 3, polarstar.IQ); err == nil {
		t.Error("q=6 should fail (not a prime power)")
	}
	if _, err := polarstar.New(5, 5, polarstar.IQ); err == nil {
		t.Error("d'=5 should fail for IQ")
	}
	if polarstar.Order(6, 3, polarstar.IQ) != 0 {
		t.Error("infeasible order should be 0")
	}
}

func TestFacadeScaleAnalysis(t *testing.T) {
	if polarstar.MooreBound(15, 3) != 3166 {
		t.Error("Moore bound wrong through facade")
	}
	best := polarstar.BestPolarStar(15)
	if best.Order != 1064 {
		t.Errorf("BestPolarStar(15) = %+v", best)
	}
	if len(polarstar.PolarStarConfigs(15)) < 2 {
		t.Error("expected multiple configs at radix 15")
	}
}

func TestFacadeGraphBuilder(t *testing.T) {
	b := polarstar.NewGraphBuilder("demo", 4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	if g.Diameter() != 2 {
		t.Errorf("C4 diameter = %d", g.Diameter())
	}
	cut, _ := polarstar.Bisect(g, 1, polarstar.BisectOptions{})
	if cut != 2 {
		t.Errorf("C4 bisection = %d, want 2", cut)
	}
}

// TestQuickRandomStarProducts: property-based check over random feasible
// parameters — every constructible PolarStar must be connected with
// diameter ≤ 3 and max degree ≤ radix.
func TestQuickRandomStarProducts(t *testing.T) {
	qs := []int{2, 3, 4, 5, 7}
	prop := func(qi, di, ki uint8) bool {
		q := qs[int(qi)%len(qs)]
		kind := []polarstar.SupernodeKind{polarstar.IQ, polarstar.Paley, polarstar.BDF}[int(ki)%3]
		var dPrime int
		switch kind {
		case polarstar.IQ:
			dPrime = []int{0, 3, 4, 7}[int(di)%4]
		case polarstar.Paley:
			dPrime = []int{2, 4, 6}[int(di)%3]
		default:
			dPrime = 1 + int(di)%6
		}
		ps, err := polarstar.New(q, dPrime, kind)
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

func TestFacadeSimSmoke(t *testing.T) {
	spec, err := polarstar.NewSpec("ps-iq-small")
	if err != nil {
		t.Fatal(err)
	}
	p := polarstar.DefaultSimParams(1)
	p.Warmup, p.Measure, p.Drain = 200, 400, 1000
	res, err := polarstar.Sweep(spec, polarstar.MINRouting, "uniform", []float64{0.1}, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].DeliveredFrac < 0.99 {
		t.Errorf("delivery %.3f", res.Points[0].DeliveredFrac)
	}
}

func TestFacadeFaultAndMotif(t *testing.T) {
	ps := polarstar.MustNew(3, 3, polarstar.IQ)
	tr, err := polarstar.FaultTrial(ps.G, nil, 1, []float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Curve[0].Connected {
		t.Error("zero-failure network disconnected")
	}
	spec, _ := polarstar.NewSpec("ps-iq-small")
	net := polarstar.NewFlowNetwork(spec.MinEngine, spec.Config(), spec.Graph, spec.UGALMids,
		polarstar.DefaultFlowParams(1))
	if tm := polarstar.RunAllreduce(net, 32, 4096, 1); tm <= 0 {
		t.Error("allreduce time non-positive")
	}
}

func TestFacadeExtensions(t *testing.T) {
	ps := polarstar.MustNew(3, 3, polarstar.IQ)
	// Edge connectivity of a well-connected small PolarStar equals its
	// minimum degree.
	if k := polarstar.EdgeConnectivity(ps.G, 0); k != ps.G.MinDegree() {
		t.Errorf("edge connectivity %d != min degree %d", k, ps.G.MinDegree())
	}
	paths := polarstar.EdgeDisjointPaths(ps.G, 0, ps.G.N()-1, 3)
	if len(paths) != 3 {
		t.Errorf("disjoint paths = %d, want 3", len(paths))
	}
	trees, err := polarstar.EdgeDisjointSpanningTrees(ps.G, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Errorf("spanning trees = %d, want 2", len(trees))
	}
	// Link loads under uniform traffic through the facade.
	spec, _ := polarstar.NewSpec("ps-iq-small")
	pattern, err := spec.Pattern("uniform", 1)
	if err != nil {
		t.Fatal(err)
	}
	loads := polarstar.ComputeLinkLoads(spec.Graph, spec.MinEngine, spec.Config(), pattern, 10, 1)
	if loads.Max <= 0 || loads.UsedLinks == 0 {
		t.Errorf("degenerate link loads: %+v", loads)
	}
	// Fault bands.
	b, err := polarstar.RunFaultBands(ps.G, nil, 5, 1, []float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Median) != 2 {
		t.Errorf("fault bands curve length %d", len(b.Median))
	}
	// Girth through the facade graph type.
	if g := ps.G.Girth(); g < 3 {
		t.Errorf("girth = %d", g)
	}
	// Collective variants.
	net := polarstar.NewFlowNetwork(spec.MinEngine, spec.Config(), spec.Graph, nil,
		polarstar.DefaultFlowParams(1))
	if tm := polarstar.RunAllreduceRing(net, 16, 4096, 1); tm <= 0 {
		t.Error("ring allreduce failed")
	}
	if tm := polarstar.RunTreeAllreduce(net, trees, 4096, 1); tm <= 0 {
		t.Error("tree allreduce failed")
	}
}

// TestFacadeMultipathResilience exercises the multipath surface: lane
// extraction through NewMultiPath/NewTreeEscape, an MP-UGAL sweep
// point, and a small live-fault ResilienceSweep comparing MIN to MP-MIN.
func TestFacadeMultipathResilience(t *testing.T) {
	spec, err := polarstar.NewSpec("ps-iq-small")
	if err != nil {
		t.Fatal(err)
	}
	mp, err := polarstar.NewMultiPath(spec.Graph, spec.MinEngine, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mp.TreeLanes() < 1 {
		t.Fatalf("no tree lanes extracted")
	}
	if _, err := polarstar.NewTreeEscape(spec.Graph, 2, 1); err != nil {
		t.Fatal(err)
	}

	p := polarstar.DefaultSimParams(1)
	p.Warmup, p.Measure, p.Drain = 200, 400, 1200
	res, err := polarstar.Sweep(spec, polarstar.MPUGALRouting, "uniform", []float64{0.1}, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].DeliveredFrac < 0.99 {
		t.Errorf("multipath delivery %.3f", res.Points[0].DeliveredFrac)
	}

	cfg := polarstar.ResilienceConfig{
		Modes:       []polarstar.RoutingMode{polarstar.MINRouting, polarstar.MPMINRouting},
		Counts:      []int{0, 2},
		Load:        0.2,
		RepairDelay: 50,
		Seed:        3,
	}
	curves, err := polarstar.ResilienceSweep(spec, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 || len(curves[0].Points) != 2 {
		t.Fatalf("sweep shape: %d curves", len(curves))
	}
	if curves[1].Lanes < 1 {
		t.Errorf("multipath curve reports no lanes")
	}
	for _, c := range curves {
		for _, pt := range c.Points {
			if pt.DeliveredFrac <= 0 {
				t.Errorf("%s with %d failures delivered nothing", c.Mode, pt.Failures)
			}
		}
	}
}

// TestFacadeErrorsNotPanics pins the facade's error contract for the
// entry points the evaluation service feeds with untrusted input: every
// invalid parameter combination — including the calendar-overflow cases
// the engine constructor guards with panics — must come back as an
// error, never a panic.
func TestFacadeErrorsNotPanics(t *testing.T) {
	spec, err := polarstar.NewSpec("ps-iq-small")
	if err != nil {
		t.Fatal(err)
	}
	bad := []polarstar.SimParams{
		func() polarstar.SimParams { p := polarstar.DefaultSimParams(1); p.PacketFlits = 0; return p }(),
		func() polarstar.SimParams { p := polarstar.DefaultSimParams(1); p.BufFlitsPerVC = 1; return p }(),
		func() polarstar.SimParams { p := polarstar.DefaultSimParams(1); p.Measure = 0; return p }(),
		func() polarstar.SimParams { p := polarstar.DefaultSimParams(1); p.Warmup = -1; return p }(),
		func() polarstar.SimParams {
			// Overflows the generation calendar's packed cycle field — the
			// case NewEngine would otherwise panic on.
			p := polarstar.DefaultSimParams(1)
			p.Warmup, p.Measure, p.Drain = 1<<38, 1<<38, 1<<38
			return p
		}(),
	}
	for i, p := range bad {
		if _, err := polarstar.RunSimPoint(context.Background(), spec, polarstar.MINRouting, "uniform", 0.1, p); err == nil {
			t.Errorf("case %d: RunSimPoint accepted invalid params %+v", i, p)
		}
		if _, err := polarstar.Sweep(spec, polarstar.MINRouting, "uniform", []float64{0.1}, p); err == nil {
			t.Errorf("case %d: Sweep accepted invalid params %+v", i, p)
		}
		if _, err := polarstar.FaultTrafficSweep(spec, polarstar.MINRouting, "uniform", 0.1, []float64{0}, p, 1); err == nil {
			t.Errorf("case %d: FaultTrafficSweep accepted invalid params %+v", i, p)
		}
	}
	// Out-of-range loads error too.
	if _, err := polarstar.RunSimPoint(context.Background(), spec, polarstar.MINRouting, "uniform", 1.5, polarstar.DefaultSimParams(1)); err == nil {
		t.Error("RunSimPoint accepted load 1.5")
	}
	// The registry answers name queries without construction.
	if !polarstar.KnownSpec("ps-iq-small") || polarstar.KnownSpec("nope") {
		t.Error("KnownSpec misclassified")
	}
	if names := polarstar.SpecNames(); len(names) < 10 {
		t.Errorf("SpecNames too short: %v", names)
	}
}
