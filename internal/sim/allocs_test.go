package sim

import (
	"testing"

	"polarstar/internal/obs"
)

// steadyStateAllocs drives one engine to its steady state, then measures
// heap allocations per simulated cycle. With metrics on, the telemetry
// layer (counters, histograms, occupancy marks, interval series) is part
// of the measured cycle. With faulted, a plan whose last event lands
// during the warm-up below is active: the measured cycles run the fault
// hooks (liveness checks, detours, retry heap, watchdog) past the events.
func steadyStateAllocs(t *testing.T, specName string, routing func(*Spec) Routing, load float64, metrics, faulted bool) float64 {
	t.Helper()
	spec := must(NewSpec(specName))
	p := DefaultParams(1)
	p.Warmup, p.Measure, p.Drain = 100000, 100000, 0 // keep generation alive throughout
	if faulted {
		e := offRouterEdge(t, spec, 3)
		p.Plan = &Plan{Events: []FaultEvent{
			{Cycle: 100, Kind: LinkDown, U: e[0], V: e[1]},
			{Cycle: 200, Kind: RouterDown, U: 3},
			{Cycle: 900, Kind: RouterUp, U: 3},
		}}
	}
	if metrics {
		p.Metrics = &obs.SimRun{}
		p.MetricsInterval = 100
	}
	pattern, err := spec.Pattern("uniform", p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(p, spec.Graph, spec.Config(), routing(spec), pattern)
	eng.initGeneration(load / float64(p.PacketFlits))
	// Warm every queue, ring and scratch buffer to its high-water mark.
	var tcyc int64
	for ; tcyc < 3000; tcyc++ {
		eng.stepCycle(tcyc)
	}
	return testing.AllocsPerRun(500, func() {
		eng.stepCycle(tcyc)
		tcyc++
	})
}

// TestSteadyStateCycleZeroAllocs is the simulator hot-loop regression
// guard: once warmed up, a simulation cycle — packet generation, routing,
// VC allocation, forwarding, delivery — performs zero heap allocations,
// for both the analytic-minimal and the adaptive UGAL configurations,
// with telemetry off and on (the obs layer sizes all its storage at
// engine construction, so observing a run must stay free), and under a
// fault plan once its last event has been applied.
func TestSteadyStateCycleZeroAllocs(t *testing.T) {
	cases := []struct {
		name             string
		routing          func(*Spec) Routing
		metrics, faulted bool
	}{
		{"min", func(s *Spec) Routing { return s.MinRouting() }, false, false},
		{"ugal", func(s *Spec) Routing { return s.UGALRouting(4) }, false, false},
		{"min-metrics", func(s *Spec) Routing { return s.MinRouting() }, true, false},
		{"ugal-metrics", func(s *Spec) Routing { return s.UGALRouting(4) }, true, false},
		{"ugal-metrics-faulted", func(s *Spec) Routing { return s.UGALRouting(4) }, true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if allocs := steadyStateAllocs(t, "ps-iq-small", c.routing, 0.3, c.metrics, c.faulted); allocs != 0 {
				t.Errorf("steady-state cycle allocates %.2f objects, want 0", allocs)
			}
		})
	}
}
