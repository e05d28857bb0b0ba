package sim

import (
	"math"
	"math/rand"
	"testing"

	"polarstar/internal/traffic"
)

func testParams(seed int64) Params {
	p := DefaultParams(seed)
	p.Warmup, p.Measure, p.Drain = 500, 1000, 2000
	return p
}

func TestZeroLoadLatency(t *testing.T) {
	// At very low load, latency approaches the contention-free value:
	// injection serialization S + per-link (S + linkLat) + ejection S.
	spec := must(NewSpec("ps-iq-small"))
	p := testParams(1)
	pattern, err := spec.Pattern("uniform", 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(p, spec.Graph, spec.Config(), spec.MinRouting(), pattern)
	res := eng.Run(0.02)
	if res.Saturated {
		t.Fatalf("saturated at load 0.02: %+v", res)
	}
	if res.DeliveredFrac < 0.999 {
		t.Fatalf("delivered %.3f at load 0.02", res.DeliveredFrac)
	}
	// Diameter 3, packets 4 flits: upper bound ~ 4 + 3*(4+1) + ... allow
	// generous headroom for queueing noise.
	if res.AvgLatency < 5 || res.AvgLatency > 40 {
		t.Errorf("zero-load latency = %.1f, expected ~10-25 cycles", res.AvgLatency)
	}
}

func TestLatencyMonotoneInLoad(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	sweep, err := Sweep(spec, MIN, "uniform", []float64{0.1, 0.4, 0.7}, testParams(2))
	if err != nil {
		t.Fatal(err)
	}
	lat := func(i int) float64 { return sweep.Points[i].AvgLatency }
	if !(lat(0) <= lat(1)*1.05 && lat(1) <= lat(2)*1.05) {
		t.Errorf("latency not (weakly) increasing: %.2f %.2f %.2f", lat(0), lat(1), lat(2))
	}
	if sweep.Points[0].Saturated {
		t.Error("load 0.1 should not saturate PolarStar MIN uniform")
	}
}

func TestThroughputTracksOfferedLoadBelowSaturation(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	res, err := Sweep(spec, MIN, "uniform", []float64{0.2}, testParams(3))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if math.Abs(p.Throughput-0.2) > 0.03 {
		t.Errorf("throughput %.3f far from offered 0.2", p.Throughput)
	}
}

func TestConservationAllPacketsDelivered(t *testing.T) {
	// With generation stopped and a long drain, every injected packet
	// must be delivered (no losses, no deadlock).
	spec := must(NewSpec("ps-iq-small"))
	p := testParams(4)
	p.Drain = 8000
	pattern, _ := spec.Pattern("uniform", 4)
	eng := NewEngine(p, spec.Graph, spec.Config(), spec.MinRouting(), pattern)
	res := eng.Run(0.3)
	if res.Backlog != 0 {
		t.Errorf("backlog %d after drain", res.Backlog)
	}
	if res.DeliveredFrac != 1.0 {
		t.Errorf("delivered frac %.4f, want 1.0", res.DeliveredFrac)
	}
}

func TestUGALBeatsMINOnAdversarial(t *testing.T) {
	// The fundamental adaptive-routing result: under the adversarial
	// pattern, UGAL must sustain strictly more load than MIN on a
	// hierarchical topology (here Dragonfly, whose single global link per
	// group pair collapses under MIN).
	spec := must(NewSpec("df-small"))
	loads := []float64{0.05, 0.1, 0.2, 0.3}
	minRes, err := Sweep(spec, MIN, "adversarial", loads, testParams(5))
	if err != nil {
		t.Fatal(err)
	}
	ugalRes, err := Sweep(spec, UGALMode, "adversarial", loads, testParams(5))
	if err != nil {
		t.Fatal(err)
	}
	if ugalRes.SaturationLoad() <= minRes.SaturationLoad() {
		t.Errorf("UGAL saturation %.2f <= MIN %.2f on adversarial dragonfly",
			ugalRes.SaturationLoad(), minRes.SaturationLoad())
	}
}

func TestAllSmallSpecsSimulate(t *testing.T) {
	// Every topology spec must run a short uniform MIN simulation without
	// panics, deliver packets, and stay deadlock-free.
	for _, name := range []string{"ps-iq-small", "ps-pal-small", "bf-small", "hx-small", "df-small", "mf-small", "ft-small"} {
		spec, err := NewSpec(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := testParams(6)
		p.Warmup, p.Measure, p.Drain = 200, 500, 2000
		pattern, err := spec.Pattern("uniform", 6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eng := NewEngine(p, spec.Graph, spec.Config(), spec.MinRouting(), pattern)
		res := eng.Run(0.1)
		if res.DeliveredFrac < 0.99 {
			t.Errorf("%s: delivered %.3f at load 0.1", name, res.DeliveredFrac)
		}
	}
}

func TestAllPatternsOnPolarStar(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	for _, pat := range []string{"uniform", "permutation", "bitshuffle", "bitreverse", "adversarial"} {
		p := testParams(7)
		p.Warmup, p.Measure, p.Drain = 200, 500, 2000
		pattern, err := spec.Pattern(pat, 7)
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		eng := NewEngine(p, spec.Graph, spec.Config(), spec.UGALRouting(p.PacketFlits), pattern)
		res := eng.Run(0.1)
		if res.DeliveredFrac < 0.95 {
			t.Errorf("pattern %s: delivered %.3f", pat, res.DeliveredFrac)
		}
	}
}

func TestDeterminism(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	run := func() Result {
		p := testParams(8)
		pattern, _ := spec.Pattern("uniform", 8)
		eng := NewEngine(p, spec.Graph, spec.Config(), spec.MinRouting(), pattern)
		return eng.Run(0.3)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestEngineRunTwicePanics(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	p := testParams(9)
	p.Warmup, p.Measure, p.Drain = 10, 10, 10
	pattern, _ := spec.Pattern("uniform", 9)
	eng := NewEngine(p, spec.Graph, spec.Config(), spec.MinRouting(), pattern)
	eng.Run(0.01)
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	eng.Run(0.01)
}

func TestUGALPathsRespectVCBound(t *testing.T) {
	spec := must(NewSpec("mf-small"))
	r := spec.UGALRouting(4)
	rng := rand.New(rand.NewSource(10))
	// Uneven occupancy: with every queue empty the floor exit would return
	// the minimal path without sampling a single Valiant path.
	occ := func(u, v int) int { return (u*7 + v*13) % 64 }
	hosts := spec.Hosts
	for i := 0; i < 500; i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if src == dst {
			continue
		}
		path := r.Path(nil, src, dst, occ, rng)
		if len(path)-1 > r.MaxHops() {
			t.Fatalf("UGAL path %v exceeds MaxHops %d", path, r.MaxHops())
		}
		if len(path) > MaxPathNodes {
			t.Fatalf("path %v exceeds MaxPathNodes", path)
		}
	}
}

func TestTrafficConfigOfSpecs(t *testing.T) {
	ft := must(NewSpec("ft-small"))
	cfg := ft.Config()
	if cfg.Endpoints() != 5*25 {
		t.Errorf("ft-small endpoints = %d, want 125", cfg.Endpoints())
	}
	if cfg.RouterOf(0) != ft.Hosts[0] {
		t.Error("host mapping wrong")
	}
	var _ traffic.Pattern = traffic.Uniform{C: cfg}
}

// TestCreditInvariants checks the internal credit accounting: after a
// fully drained run every VC buffer reservation must be back to zero,
// and no buffer may ever have exceeded its capacity (spot-checked via
// the final state plus the in-run panic guards).
func TestCreditInvariants(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	p := testParams(11)
	p.Drain = 8000
	pattern, _ := spec.Pattern("uniform", 11)
	eng := NewEngine(p, spec.Graph, spec.Config(), spec.UGALRouting(p.PacketFlits), pattern)
	res := eng.Run(0.4)
	if res.DeliveredFrac != 1 {
		t.Fatalf("drain incomplete: %+v", res)
	}
	for i, o := range eng.occ {
		if o != 0 {
			t.Fatalf("occ[%d] = %d after full drain", i, o)
		}
	}
	for i := range eng.queues {
		if eng.queues[i].head >= 0 {
			t.Fatalf("queue %d not empty after drain", i)
		}
	}
}

// TestVCCountMatchesPaper: MIN routing on a diameter-3 direct topology
// must use exactly 4 VCs (the §9.4 configuration).
func TestVCCountMatchesPaper(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	pattern, _ := spec.Pattern("uniform", 1)
	eng := NewEngine(testParams(1), spec.Graph, spec.Config(), spec.MinRouting(), pattern)
	if eng.vcs != 4 {
		t.Errorf("MIN VCs = %d, want 4", eng.vcs)
	}
}

// must returns v and panics on err; test set-up here only builds valid
// instances.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
