package sim

import "testing"

// The pinned results below were captured at the introduction of the
// two-phase (arbitrate → commit) cycle, which moved routing onto
// per-packet-seeded RNG streams and defers credit releases to the end of
// the cycle — a one-time regeneration validated against the previous
// goldens (saturation loads unchanged, avg latency within 5%; see
// results/perf/). They must reproduce bit for bit at any Params.Workers
// value and GOMAXPROCS — across the analytic PolarStar router (MIN), the
// Valiant/UGAL wrapper (which mixes intermediate draws with per-leg
// routing draws), and the shuffling HyperX router.

func goldenRun(t *testing.T, specName string, routing func(*Spec) Routing) Result {
	t.Helper()
	spec := must(NewSpec(specName))
	p := DefaultParams(1)
	p.Warmup, p.Measure, p.Drain = 500, 1000, 1500
	pattern, err := spec.Pattern("uniform", p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(p, spec.Graph, spec.Config(), routing(spec), pattern)
	return eng.Run(0.3)
}

func checkGolden(t *testing.T, res Result, avgLat float64, maxLat int64, thr float64) {
	t.Helper()
	if res.AvgLatency != avgLat {
		t.Errorf("avg latency = %.17g, want %.17g", res.AvgLatency, avgLat)
	}
	if res.MaxLatency != maxLat {
		t.Errorf("max latency = %d, want %d", res.MaxLatency, maxLat)
	}
	if res.Throughput != thr {
		t.Errorf("throughput = %.17g, want %.17g", res.Throughput, thr)
	}
	if res.DeliveredFrac != 1 {
		t.Errorf("delivered fraction = %.17g, want 1", res.DeliveredFrac)
	}
}

func TestGoldenPSIQSmallMIN(t *testing.T) {
	res := goldenRun(t, "ps-iq-small", func(s *Spec) Routing { return s.MinRouting() })
	checkGolden(t, res, 20.745453758226532, 74, 0.29801290322580642)
	if res.Backlog != 0 {
		t.Errorf("backlog = %d, want 0", res.Backlog)
	}
}

func TestGoldenPSIQSmallUGAL(t *testing.T) {
	res := goldenRun(t, "ps-iq-small", func(s *Spec) Routing { return s.UGALRouting(4) })
	checkGolden(t, res, 22.741253896778662, 72, 0.29801290322580642)
}

func TestGoldenHXSmallMIN(t *testing.T) {
	res := goldenRun(t, "hx-small", func(s *Spec) Routing { return s.MinRouting() })
	checkGolden(t, res, 18.2411884240768, 49, 0.29731249999999998)
}
