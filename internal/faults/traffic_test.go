package faults

import (
	"context"
	"testing"

	"polarstar/internal/sim"
)

func trafficParams() sim.Params {
	p := sim.DefaultParams(3)
	p.Warmup, p.Measure, p.Drain = 200, 400, 600
	return p
}

func TestTrafficSweepDegrades(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	fracs := []float64{0, 0.05, 0.1}
	pts, err := TrafficSweep(spec, sim.MIN, "uniform", 0.2, fracs, trafficParams(), 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(fracs) {
		t.Fatalf("got %d points, want %d", len(pts), len(fracs))
	}
	if pts[0].Removed != 0 || pts[0].DeliveredFrac != 1 {
		t.Errorf("intact network: removed=%d delivered=%.3f, want 0 and 1", pts[0].Removed, pts[0].DeliveredFrac)
	}
	for i, p := range pts {
		if p.FailFrac != fracs[i] {
			t.Errorf("point %d: frac %.3f, want %.3f", i, p.FailFrac, fracs[i])
		}
		if p.DeliveredFrac <= 0 {
			t.Errorf("frac %.2f: nothing delivered", p.FailFrac)
		}
	}
	// More failures cannot remove fewer links.
	for i := 1; i < len(pts); i++ {
		if pts[i].Removed < pts[i-1].Removed {
			t.Errorf("removed counts not monotone: %d then %d", pts[i-1].Removed, pts[i].Removed)
		}
	}
}

// TestTrafficSweepDeterministic pins that the sweep is reproducible and
// independent of the engine worker count.
func TestTrafficSweepDeterministic(t *testing.T) {
	run := func(workers int) []TrafficPoint {
		spec := must(sim.NewSpec("ps-iq-small"))
		p := trafficParams()
		p.Workers = workers
		pts, err := TrafficSweep(spec, sim.UGALMode, "uniform", 0.2, []float64{0, 0.05}, p, 11, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d differs across workers: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestTrafficSweepMultipath pins that the multipath modes really run
// multipath on the degraded spec: the intact point equals sim.RunPoint in
// the same mode on the table-routed spec (and differs from MIN, which the
// sweep used to simulate for every mode it did not know), and once the
// damage disconnects the graph the lane extractor's error comes back
// instead of single-table numbers.
func TestTrafficSweepMultipath(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	p := trafficParams()
	const load = 0.6
	min, err := TrafficSweep(spec, sim.MIN, "uniform", load, []float64{0}, p, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []sim.RoutingMode{sim.MPMINMode, sim.MPUGALMode} {
		pts, err := TrafficSweep(spec, mode, "uniform", load, []float64{0, 0.05}, p, 11, nil)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		want, err := sim.RunPoint(context.Background(), spec.DegradedInto(nil, nil), mode, "uniform", load, p)
		if err != nil {
			t.Fatal(err)
		}
		if pts[0].Result != want {
			t.Errorf("%s intact point %+v != RunPoint %+v", mode, pts[0].Result, want)
		}
		if pts[0].Result == min[0].Result {
			t.Errorf("%s intact point equals MIN's: %+v", mode, pts[0].Result)
		}
		if pts[1].Removed == 0 || pts[1].DeliveredFrac <= 0 {
			t.Errorf("%s degraded point %+v: want links removed and traffic delivered", mode, pts[1])
		}
		if _, err := TrafficSweep(spec, mode, "uniform", load, []float64{0.9}, p, 11, nil); err == nil {
			t.Errorf("%s on a disconnected graph returned no error", mode)
		}
	}
}
