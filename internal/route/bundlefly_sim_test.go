package route_test

import (
	"testing"

	"polarstar/internal/route"
	"polarstar/internal/sim"
	"polarstar/internal/topo"
)

// TestBundleflySingleVsMultiMinpath reproduces the §9.3 observation that
// Bundlefly benefits from all-minpath tables: under permutation traffic
// (persistent flows) at load 0.5, per-packet multipath sampling delivers
// lower latency than the deterministic single analytic minpath.
func TestBundleflySingleVsMultiMinpath(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bf, err := topo.NewBundlefly(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(engine route.Engine, name string) *sim.Spec {
		return &sim.Spec{
			Name: name, Graph: bf.G, PerRouter: 2,
			NumGroups: bf.NumGroups(), GroupOf: bf.GroupOf,
			MinEngine: engine, MinHops: 3,
		}
	}
	p := sim.DefaultParams(1)
	p.Warmup, p.Measure, p.Drain = 1500, 3000, 5000
	lat := func(s *sim.Spec) float64 {
		res, err := sim.Sweep(s, sim.MIN, "permutation", []float64{0.5}, p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Points[0].AvgLatency
	}
	single := lat(mk(route.NewBundlefly(bf), "bf-single"))
	multi := lat(mk(route.NewTable(bf.G, route.AllMinPaths), "bf-multi"))
	if multi >= single {
		t.Errorf("multipath latency %.1f not below single-minpath %.1f", multi, single)
	}
}
