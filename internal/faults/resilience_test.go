package faults

import (
	"math"
	"testing"

	"polarstar/internal/obs"
	"polarstar/internal/sim"
)

// resilienceParams is the full-length §9.4 window: the acceptance
// property below needs real warmup/measure spans for the repair-stall
// separation to show, so it does not shrink them.
func resilienceParams(workers int) sim.Params {
	p := sim.DefaultParams(7)
	p.Workers = workers
	return p
}

// TestResilienceAcceptanceMultipathBeatsMinRepair pins the headline
// robustness property (ISSUE 10 acceptance): on PolarStar-IQ(4,3) under
// a scripted rolling plan that kills links of two of the three tree
// lanes (lane 3's spanning tree is never touched, so the graph stays
// connected throughout), MultiPath(3) sustains strictly higher delivered
// throughput than single-table MIN+repair at the same offered load and
// loses zero packets, while MIN — stalled RepairDelay cycles on every
// topology event — pays retries and losses.
func TestResilienceAcceptanceMultipathBeatsMinRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("full-window resilience sweep")
	}
	spec := must(sim.NewSpec("ps-iq-43"))
	cfg := ResilienceConfig{
		Modes:       []sim.RoutingMode{sim.MIN, sim.MPUGALMode},
		Counts:      []int{16},
		Load:        0.3,
		MTBF:        200,
		Repair:      800,
		RepairDelay: 1000,
		TargetLanes: 2,
		Seed:        1,
	}
	curves, err := ResilienceSweep(spec, cfg, resilienceParams(4))
	if err != nil {
		t.Fatal(err)
	}
	min, mp := curves[0].Points[0], curves[1].Points[0]
	if curves[1].Lanes < 3 {
		t.Fatalf("MultiPath got %d lanes, want >= 3", curves[1].Lanes)
	}
	if mp.Throughput <= min.Throughput {
		t.Errorf("MultiPath throughput %.4f not strictly above MIN+repair %.4f",
			mp.Throughput, min.Throughput)
	}
	if mp.Lost != 0 {
		t.Errorf("MultiPath lost %d packets; want 0 while the graph stays connected", mp.Lost)
	}
	if min.Lost == 0 {
		t.Errorf("MIN+repair lost nothing under the repair stall; separation scenario is broken")
	}
	if mp.DeliveredFrac < min.DeliveredFrac {
		t.Errorf("MultiPath delivered %.4f below MIN's %.4f", mp.DeliveredFrac, min.DeliveredFrac)
	}
}

// TestResilienceSweepDeterministicAcrossWorkers pins the sweep to the
// engine's worker-count contract: identical Results at Workers 1 and 4,
// including the per-lane obs sections.
func TestResilienceSweepDeterministicAcrossWorkers(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	cfg := ResilienceConfig{
		Modes:       []sim.RoutingMode{sim.MIN, sim.MPMINMode},
		Counts:      []int{0, 2},
		Load:        0.2,
		MTBF:        40,
		Repair:      150,
		RepairDelay: 60,
		Seed:        5,
	}
	run := func(workers int) []ResilienceCurve {
		p := sim.DefaultParams(3)
		p.Warmup, p.Measure, p.Drain = 200, 400, 1200
		p.Workers = workers
		curves, err := ResilienceSweep(spec, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		return curves
	}
	a, b := run(1), run(4)
	for i := range a {
		for j := range a[i].Points {
			if a[i].Points[j].Result != b[i].Points[j].Result {
				t.Errorf("%s with %d failures: Workers=1 %+v != Workers=4 %+v",
					a[i].Mode, a[i].Points[j].Failures, a[i].Points[j].Result, b[i].Points[j].Result)
			}
		}
	}
}

// TestResilienceSweepObsSections checks the telemetry wiring: one curve
// per mode, one point per count, lane counters only on multipath curves,
// and results unchanged by metrics collection.
func TestResilienceSweepObsSections(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	cfg := ResilienceConfig{
		Modes:       []sim.RoutingMode{sim.MIN, sim.MPMINMode},
		Counts:      []int{0, 2},
		Load:        0.2,
		TargetLanes: 2,
		RepairDelay: 50,
		Seed:        9,
	}
	p := sim.DefaultParams(3)
	p.Warmup, p.Measure, p.Drain = 200, 400, 1200
	bare, err := ResilienceSweep(spec, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	var fr obs.FaultResilience
	obsCurves, err := ResilienceSweepObs(spec, cfg, p, &fr)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Spec != spec.Name || fr.TargetLanes != 2 || fr.RepairDelay != 50 {
		t.Errorf("header = %q/%d/%d, want %q/2/50", fr.Spec, fr.TargetLanes, fr.RepairDelay, spec.Name)
	}
	if len(fr.Curves) != 2 || len(fr.Curves[0].Points) != 2 {
		t.Fatalf("obs shape: %d curves × %d points, want 2 × 2", len(fr.Curves), len(fr.Curves[0].Points))
	}
	for i := range bare {
		for j := range bare[i].Points {
			if bare[i].Points[j].Result != obsCurves[i].Points[j].Result {
				t.Errorf("%s point %d: metrics collection changed the Result", bare[i].Mode, j)
			}
		}
	}
	if fr.Curves[0].Lanes != 0 {
		t.Errorf("MIN curve reports %d lanes, want 0", fr.Curves[0].Lanes)
	}
	if fr.Curves[1].Lanes == 0 {
		t.Errorf("multipath curve reports no lanes")
	}
	mpFaulted := fr.Curves[1].Points[1].Sim
	if mpFaulted == nil || mpFaulted.Lanes == nil {
		t.Fatalf("faulted multipath point has no lane section")
	}
}

// TestResilienceSweepValidation covers the error paths.
func TestResilienceSweepValidation(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	p := sim.DefaultParams(3)
	p.Warmup, p.Measure, p.Drain = 100, 100, 300
	cases := []struct {
		name string
		cfg  ResilienceConfig
	}{
		{"zero load", ResilienceConfig{Counts: []int{0}}},
		{"load above one", ResilienceConfig{Counts: []int{0}, Load: 1.5}},
		{"NaN load", ResilienceConfig{Counts: []int{0}, Load: math.NaN()}},
		{"infinite load", ResilienceConfig{Counts: []int{0}, Load: math.Inf(1)}},
		{"negative infinite load", ResilienceConfig{Counts: []int{0}, Load: math.Inf(-1)}},
		{"no counts", ResilienceConfig{Load: 0.2}},
		{"count above pool", ResilienceConfig{Load: 0.2, Counts: []int{1 << 20}}},
		{"negative count", ResilienceConfig{Load: 0.2, Counts: []int{-1}}},
		{"too many target lanes", ResilienceConfig{Load: 0.2, Counts: []int{0}, TargetLanes: 64}},
	}
	for _, tc := range cases {
		if _, err := ResilienceSweep(spec, tc.cfg, p); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}
