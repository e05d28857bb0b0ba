package polarstar_test

import (
	"testing"

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
	tr, err := polarstar.FaultMedianTrial(ps.G, nil, 3, 1, []float64{0, 0.2})
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
