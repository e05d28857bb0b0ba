package sim

import (
	"context"
	"runtime"
	"testing"

	"polarstar/internal/obs"
)

// mpTestSpec is the resilience testbed: PSIQ(4,3), 168 routers, radix 8,
// rich enough for 3 edge-disjoint spanning-tree lanes.
const mpTestSpec = "ps-iq-43"

// laneEdges extracts the tree-edge lists of the spec's multipath lanes
// (as the engine will build them: same fixed extraction seed).
func laneEdges(t *testing.T, spec *Spec, lanes int) [][][2]int {
	t.Helper()
	r, err := spec.Routing(MPMINMode, Params{Lanes: lanes, PacketFlits: 4})
	if err != nil {
		t.Fatal(err)
	}
	mp := r.(*MultiPathRouting).MP
	edges := make([][][2]int, mp.TreeLanes())
	for l := range edges {
		edges[l] = mp.TreeEdges(l)
	}
	return edges
}

// treeLanePlan scripts a fault plan wounding every tree lane: `per` tree
// edges of each lane go down at cycle `down`, repaired at `up` (0: never).
func treeLanePlan(t *testing.T, spec *Spec, lanes, per int, down, up int64) *Plan {
	t.Helper()
	plan := &Plan{}
	for _, edges := range laneEdges(t, spec, lanes) {
		for i := 0; i < per && i < len(edges); i++ {
			e := edges[i*7%len(edges)]
			plan.Events = append(plan.Events, FaultEvent{Cycle: down, Kind: LinkDown, U: e[0], V: e[1]})
			if up > 0 {
				plan.Events = append(plan.Events, FaultEvent{Cycle: up, Kind: LinkUp, U: e[0], V: e[1]})
			}
		}
	}
	return plan
}

func mpRun(t *testing.T, mode RoutingMode, plan *Plan, workers int, met *obs.SimRun) Result {
	t.Helper()
	spec := must(NewSpec(mpTestSpec))
	p := DefaultParams(7)
	p.Warmup, p.Measure, p.Drain = 300, 600, 900
	p.Workers = workers
	p.Lanes = 3
	p.Plan = plan
	p.Metrics = met
	res, err := RunPoint(context.Background(), spec, mode, "uniform", 0.3, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMultipathDeterminismAcrossWorkers pins the lane machinery to the
// engine's core contract: MP-MIN and MP-UGAL produce bit-identical
// Results at any worker count, healthy and under a scripted down/up plan
// that demotes lanes mid-run and lets them re-probe back.
func TestMultipathDeterminismAcrossWorkers(t *testing.T) {
	spec := must(NewSpec(mpTestSpec))
	plans := map[string]*Plan{
		"healthy": nil,
		"faulted": treeLanePlan(t, spec, 3, 2, 350, 700),
	}
	for _, mode := range []RoutingMode{MPMINMode, MPUGALMode} {
		for pname, plan := range plans {
			mode, plan := mode, plan
			t.Run(mode.String()+"/"+pname, func(t *testing.T) {
				t.Parallel()
				ref := mpRun(t, mode, plan, 1, nil)
				for _, workers := range []int{4, numShards} {
					if got := mpRun(t, mode, plan, workers, nil); got != ref {
						t.Errorf("workers=%d: result %+v differs from serial %+v", workers, got, ref)
					}
				}
			})
		}
	}
}

// TestMultipathDeterminismAcrossGOMAXPROCS: scheduling must not leak
// into a faulted multipath run either.
func TestMultipathDeterminismAcrossGOMAXPROCS(t *testing.T) {
	spec := must(NewSpec(mpTestSpec))
	plan := treeLanePlan(t, spec, 3, 1, 350, 700)
	ref := mpRun(t, MPMINMode, plan, numShards, nil)
	prev := runtime.GOMAXPROCS(1)
	got := mpRun(t, MPMINMode, plan, numShards, nil)
	runtime.GOMAXPROCS(prev)
	if got != ref {
		t.Errorf("GOMAXPROCS=1 result %+v differs from GOMAXPROCS=%d %+v", got, prev, ref)
	}
}

// TestMultipathLaneDegenerationToMin is the degeneracy property: with
// every tree lane demoted from cycle 0 (one tree edge each, never
// repaired), MP-MIN must collapse to exactly the PR-5 escape-then-retry
// behavior — the Result is bit-identical to single-table MIN under the
// same plan. The base path is built first in PathLane (fixing the RNG
// stream) and the lane-0 VC band arithmetic reduces to the classic
// ladder, so any divergence here means the spray leaked into the
// degenerate case.
func TestMultipathLaneDegenerationToMin(t *testing.T) {
	spec := must(NewSpec(mpTestSpec))
	mkPlan := func() *Plan { return treeLanePlan(t, spec, 3, 1, 0, 0) }
	min := mpRun(t, MIN, mkPlan(), numShards, nil)
	mp := mpRun(t, MPMINMode, mkPlan(), numShards, nil)
	if mp != min {
		t.Errorf("all-lanes-demoted MP-MIN %+v differs from MIN %+v", mp, min)
	}
}

// TestMultipathLaneCounters checks the obs wiring: a faulted multipath
// run reports per-lane spray/delivery counts consistent with the packet
// counters, records the demotions/promotions of the scripted plan, and
// performs in-flight lane failovers when tree edges die under traffic.
func TestMultipathLaneCounters(t *testing.T) {
	spec := must(NewSpec(mpTestSpec))
	plan := treeLanePlan(t, spec, 3, 2, 350, 700)
	var met obs.SimRun
	res := mpRun(t, MPMINMode, plan, numShards, &met)
	if met.Lanes == nil {
		t.Fatal("multipath run produced no lanes section")
	}
	la := met.Lanes
	if la.Lanes != 3 {
		t.Errorf("lanes = %d, want 3", la.Lanes)
	}
	var chosen, delivered int64
	for l := 0; l <= la.Lanes; l++ {
		chosen += la.Chosen[l]
		delivered += la.Delivered[l]
	}
	if chosen != met.Injected.Value() {
		t.Errorf("lane chosen sum %d != injected %d", chosen, met.Injected.Value())
	}
	if delivered != met.Delivered.Value() {
		t.Errorf("lane delivered sum %d != delivered %d", delivered, met.Delivered.Value())
	}
	for l := 1; l <= la.Lanes; l++ {
		if la.Chosen[l] == 0 {
			t.Errorf("tree lane %d never chosen", l)
		}
	}
	// Two edges of each of 3 lanes die at 350: every lane demotes once,
	// heals at 700 and re-probes back before the run ends.
	if la.Demoted != 3 {
		t.Errorf("demoted = %d, want 3", la.Demoted)
	}
	if la.Promoted != 3 {
		t.Errorf("promoted = %d, want 3", la.Promoted)
	}
	if res.Dropped == 0 && failoverSum(la) == 0 {
		t.Error("plan hit no in-flight packet at all: neither drops nor lane failovers")
	}
	t.Logf("chosen=%v delivered=%v failovers=%v dropped=%d", la.Chosen, la.Delivered, la.Failovers, res.Dropped)
}

func failoverSum(la *obs.SimLanes) int64 {
	var s int64
	for _, f := range la.Failovers {
		s += f
	}
	return s
}

// TestMultipathHealthyMatchesNoPlanEngine pins that an *empty* plan on a
// multipath engine is indistinguishable from no plan at all (the same
// contract the single-lane engine keeps).
func TestMultipathHealthyMatchesNoPlanEngine(t *testing.T) {
	ref := mpRun(t, MPUGALMode, nil, numShards, nil)
	got := mpRun(t, MPUGALMode, &Plan{}, numShards, nil)
	if got != ref {
		t.Errorf("empty-plan result %+v differs from plan-less %+v", got, ref)
	}
}
