package sim

import (
	"runtime"
	"testing"
)

// smallSpecNames lists every scaled-down spec (one per Table-3
// construction plus the PolarFly/Slimfly extras).
var smallSpecNames = []string{
	"ps-iq-small", "ps-pal-small", "bf-small", "hx-small", "df-small",
	"sf-small", "mf-small", "ft-small", "pf-small", "slimfly-small",
}

func detRun(t *testing.T, specName string, mode RoutingMode, workers int) Result {
	t.Helper()
	spec := must(NewSpec(specName))
	p := DefaultParams(7)
	p.Warmup, p.Measure, p.Drain = 300, 600, 900
	p.Workers = workers
	pattern, err := spec.Pattern("uniform", p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var routing Routing
	if mode == UGALMode {
		routing = spec.UGALRouting(p.PacketFlits)
	} else {
		routing = spec.MinRouting()
	}
	eng := NewEngine(p, spec.Graph, spec.Config(), routing, pattern)
	return eng.Run(0.3)
}

// TestDeterminismAcrossWorkers pins the core guarantee of the two-phase
// cycle: every spec × routing mode produces a bit-identical Result for
// any worker count. The serial single-worker run is the reference.
func TestDeterminismAcrossWorkers(t *testing.T) {
	for _, name := range smallSpecNames {
		for _, mode := range []RoutingMode{MIN, UGALMode} {
			name, mode := name, mode
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				ref := detRun(t, name, mode, 1)
				for _, workers := range []int{2, numShards} {
					if got := detRun(t, name, mode, workers); got != ref {
						t.Errorf("workers=%d: result %+v differs from serial %+v", workers, got, ref)
					}
				}
			})
		}
	}
}

// TestDeterminismAcrossGOMAXPROCS runs the parallel engine under
// different GOMAXPROCS values: scheduling must not leak into the
// results. (CI additionally runs the whole package at GOMAXPROCS=1.)
func TestDeterminismAcrossGOMAXPROCS(t *testing.T) {
	ref := detRun(t, "ps-iq-small", UGALMode, numShards)
	prev := runtime.GOMAXPROCS(1)
	got := detRun(t, "ps-iq-small", UGALMode, numShards)
	runtime.GOMAXPROCS(prev)
	if got != ref {
		t.Errorf("GOMAXPROCS=1 result %+v differs from GOMAXPROCS=%d %+v", got, prev, ref)
	}
}
