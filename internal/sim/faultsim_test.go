package sim

import (
	"testing"
	"time"

	"polarstar/internal/obs"
)

// runGuarded fails the test if the run does not finish within 60s: a
// fault-disconnected network must terminate with partial metrics, never
// hang the suite.
func runGuarded(t *testing.T, eng *Engine, load float64) Result {
	t.Helper()
	var res Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = eng.Run(load)
	}()
	select {
	case <-done:
		return res
	case <-time.After(60 * time.Second):
		t.Fatal("fault-injected run did not terminate within 60s")
		return Result{}
	}
}

// faultRun simulates ps-iq-small uniform traffic under the given plan.
func faultRun(t *testing.T, mode RoutingMode, plan *Plan, retry RetryPolicy, workers int) Result {
	t.Helper()
	spec := must(NewSpec("ps-iq-small"))
	p := DefaultParams(7)
	p.Warmup, p.Measure, p.Drain = 300, 600, 2500
	p.Workers = workers
	p.Plan = plan
	p.Retry = retry
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
	return runGuarded(t, eng, 0.3)
}

// offRouterEdge returns an edge of g with neither endpoint equal to r.
func offRouterEdge(t *testing.T, spec *Spec, r int) [2]int {
	t.Helper()
	for _, e := range spec.Graph.Edges() {
		if e[0] != r && e[1] != r {
			return e
		}
	}
	t.Fatal("no edge avoiding router")
	return [2]int{}
}

// TestFaultDeterminismAcrossWorkers pins the tentpole guarantee: a run
// with live faults — a link dying mid-measure, a router failing, the
// link coming back — produces a bit-identical Result for any worker
// count, for both routing modes.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker fault-determinism sweep; full run in the CI race job")
	}
	spec := must(NewSpec("ps-iq-small"))
	const deadRouter = 3
	e := offRouterEdge(t, spec, deadRouter)
	plan := &Plan{Events: []FaultEvent{
		{Cycle: 350, Kind: LinkDown, U: e[0], V: e[1]},
		{Cycle: 420, Kind: RouterDown, U: deadRouter},
		{Cycle: 600, Kind: LinkUp, U: e[0], V: e[1]},
	}}
	for _, mode := range []RoutingMode{MIN, UGALMode} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			ref := faultRun(t, mode, plan, RetryPolicy{}, 1)
			for _, workers := range []int{4, numShards} {
				if got := faultRun(t, mode, plan, RetryPolicy{}, workers); got != ref {
					t.Errorf("workers=%d: result %+v differs from serial %+v", workers, got, ref)
				}
			}
			if ref.Lost == 0 {
				t.Errorf("permanent router failure lost no packets: %+v", ref)
			}
			if ref.Retried == 0 {
				t.Errorf("live faults triggered no source retries: %+v", ref)
			}
		})
	}
}

// TestFaultDisconnectDeterminism kills a router permanently: packets to
// its endpoints are undeliverable, so the run must end early via the
// no-progress watchdog with partial delivered/dropped/lost accounting —
// identically at every worker count.
func TestFaultDisconnectDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker fault-determinism sweep; full run in the CI race job")
	}
	plan := &Plan{Events: []FaultEvent{{Cycle: 50, Kind: RouterDown, U: 3}}}
	retry := RetryPolicy{MaxRetries: 3, BackoffBase: 4, BackoffCap: 64, MaxAge: 1500}
	ref := faultRun(t, MIN, plan, retry, 1)
	for _, workers := range []int{4, numShards} {
		if got := faultRun(t, MIN, plan, retry, workers); got != ref {
			t.Errorf("workers=%d: result %+v differs from serial %+v", workers, got, ref)
		}
	}
	if !ref.TerminatedEarly {
		t.Errorf("watchdog did not end the disconnected run early: %+v", ref)
	}
	if ref.Lost == 0 || ref.DeliveredFrac >= 1 {
		t.Errorf("disconnected run reports no loss: %+v", ref)
	}
	if ref.DeliveredFrac == 0 || ref.Throughput == 0 {
		t.Errorf("partial result should still deliver reachable traffic: %+v", ref)
	}
}

// TestFaultRepairRecovers drops two links mid-measure and repairs them:
// with rerouting plus source retries every packet still arrives.
func TestFaultRepairRecovers(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	edges := spec.Graph.Edges()
	e1, e2 := edges[0], edges[len(edges)/2]
	plan := &Plan{Events: []FaultEvent{
		{Cycle: 350, Kind: LinkDown, U: e1[0], V: e1[1]},
		{Cycle: 350, Kind: LinkDown, U: e2[0], V: e2[1]},
		{Cycle: 500, Kind: LinkUp, U: e1[0], V: e1[1]},
		{Cycle: 500, Kind: LinkUp, U: e2[0], V: e2[1]},
	}}
	retry := RetryPolicy{MaxRetries: 8, BackoffBase: 8, BackoffCap: 512, MaxAge: 0}
	res := faultRun(t, MIN, plan, retry, numShards)
	if res.Dropped == 0 && res.Retried == 0 {
		t.Errorf("link failures at load 0.3 touched no packet: %+v", res)
	}
	if res.Lost != 0 {
		t.Errorf("transient failure lost %d packets", res.Lost)
	}
	if res.DeliveredFrac < 0.999 {
		t.Errorf("delivered fraction %.4f after repair", res.DeliveredFrac)
	}
	// The watchdog may cut the idle drain short once everything has
	// arrived — but never with packets still in the network.
	if res.Backlog != 0 {
		t.Errorf("backlog %d after full recovery", res.Backlog)
	}
}

// TestFaultNilAndEmptyPlanIdentical pins the gating contract: a non-nil
// but empty plan takes the healthy fast path and is bit-identical to no
// plan at all.
func TestFaultNilAndEmptyPlanIdentical(t *testing.T) {
	ref := detRun(t, "ps-iq-small", UGALMode, numShards)
	spec := must(NewSpec("ps-iq-small"))
	p := DefaultParams(7)
	p.Warmup, p.Measure, p.Drain = 300, 600, 900
	p.Workers = numShards
	p.Plan = &Plan{}
	p.Retry = DefaultRetryPolicy()
	pattern, err := spec.Pattern("uniform", p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(p, spec.Graph, spec.Config(), spec.UGALRouting(p.PacketFlits), pattern)
	if got := eng.Run(0.3); got != ref {
		t.Errorf("empty plan result %+v differs from plan-less %+v", got, ref)
	}
}

// TestFaultMetricsSection pins the obs plumbing: a fault-injected run
// attaches the SimFaults record and its counters agree with the Result;
// a healthy run leaves it nil so artifacts stay byte-identical.
func TestFaultMetricsSection(t *testing.T) {
	if _, m := obsRun(t, "ps-iq-small", MIN, 2, 0); m.Faults != nil {
		t.Errorf("healthy run attached a fault section: %+v", m.Faults)
	}
	spec := must(NewSpec("ps-iq-small"))
	plan := &Plan{Events: []FaultEvent{{Cycle: 50, Kind: RouterDown, U: 3}}}
	p := DefaultParams(7)
	p.Warmup, p.Measure, p.Drain = 300, 600, 2500
	p.Workers = 2
	p.Plan = plan
	p.Metrics = &obs.SimRun{}
	pattern, err := spec.Pattern("uniform", p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(p, spec.Graph, spec.Config(), spec.MinRouting(), pattern)
	res := runGuarded(t, eng, 0.3)
	f := p.Metrics.Faults
	if f == nil {
		t.Fatal("fault-injected run attached no fault section")
	}
	if f.PlanEvents != 1 || f.EventsApplied != 1 {
		t.Errorf("plan accounting %+v, want 1 event applied", f)
	}
	if f.Retries.Value() != res.Retried || f.DroppedInFlight.Value() != res.Dropped {
		t.Errorf("fault section %+v inconsistent with result %+v", f, res)
	}
	if lost := f.LostRetryBudget.Value() + f.LostTimeout.Value() + f.LostStranded.Value(); lost == 0 || lost > res.Lost {
		t.Errorf("loss buckets sum to %d, result lost %d", lost, res.Lost)
	}
	if f.TerminatedEarly != res.TerminatedEarly {
		t.Errorf("fault section early-termination flag %v != result %v", f.TerminatedEarly, res.TerminatedEarly)
	}
}

// TestCheckReachable pins the fail-fast validation: patterns addressing
// pairs a degraded topology cannot connect are rejected with a
// descriptive error instead of silently losing the traffic.
func TestCheckReachable(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	cfg := spec.Config()
	for _, name := range []string{"uniform", "permutation"} {
		pattern, err := spec.Pattern(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckReachable(spec.Graph, cfg, pattern); err != nil {
			t.Errorf("%s on the intact graph rejected: %v", name, err)
		}
	}
	// Isolate router 0: anything addressing its endpoints is unreachable.
	var isolating [][2]int
	for _, e := range spec.Graph.Edges() {
		if e[0] == 0 || e[1] == 0 {
			isolating = append(isolating, e)
		}
	}
	deg := spec.Graph.RemoveEdges(isolating)
	for _, name := range []string{"uniform", "permutation"} {
		pattern, err := spec.Pattern(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckReachable(deg, cfg, pattern); err == nil {
			t.Errorf("%s on a disconnected graph accepted", name)
		}
	}
}
