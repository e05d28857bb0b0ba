package sim

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSweepErrorCancels pins the failure path of Sweep: an error must be
// returned, no goroutine may be left behind (the feeder used to block on
// its channel send forever once the workers exited), and the remaining
// load points must not be simulated.
func TestSweepErrorCancels(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	p := DefaultParams(1)
	p.Warmup, p.Measure, p.Drain = 100, 100, 100
	before := runtime.NumGoroutine()
	// An unknown pattern fails inside every worker, on every load point.
	res, err := Sweep(spec, MIN, "no-such-pattern", DefaultLoads, p)
	if err == nil {
		t.Fatal("Sweep with an unknown pattern returned no error")
	}
	for i, pt := range res.Points {
		if pt != (Result{}) {
			t.Errorf("load point %d was simulated after the failure: %+v", i, pt)
		}
	}
	// The feeder goroutine drains on the error signal; give the runtime
	// a moment to reap it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines leaked: %d before Sweep, %d after", before, got)
	}
}

// TestSweepWorkerBudget checks the two-level worker split: an explicit
// Params.Workers is honored and the auto setting still completes.
func TestSweepWorkerBudget(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	p := DefaultParams(1)
	p.Warmup, p.Measure, p.Drain = 100, 200, 300
	loads := []float64{0.1, 0.3}
	auto, err := Sweep(spec, MIN, "uniform", loads, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = numShards
	pinned, err := Sweep(spec, MIN, "uniform", loads, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range loads {
		if auto.Points[i] != pinned.Points[i] {
			t.Errorf("load %.2f: auto-worker result %+v != pinned %+v", loads[i], auto.Points[i], pinned.Points[i])
		}
	}
}

// TestRoutingModeTable pins the single routing vocabulary: every mode's
// wire name is its lower-cased label and parses back to it, unknown names
// are rejected, and Spec.Routing returns a laned adapter exactly for the
// multipath rows.
func TestRoutingModeTable(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	names := RoutingModeNames()
	if len(names) != int(MPUGALMode)+1 {
		t.Fatalf("RoutingModeNames() = %v, want one name per mode constant", names)
	}
	for i, name := range names {
		m := RoutingMode(i)
		if want := strings.ToLower(m.String()); name != want {
			t.Errorf("mode %d: wire name %q, want lower-cased label %q", i, name, want)
		}
		got, err := ParseRoutingMode(name)
		if err != nil || got != m {
			t.Errorf("ParseRoutingMode(%q) = %v, %v; want %v", name, got, err, m)
		}
		r, err := spec.Routing(m, DefaultParams(1))
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if _, laned := r.(lanedRouting); laned != m.Multipath() {
			t.Errorf("%s: laned adapter = %v, Multipath() = %v", m, laned, m.Multipath())
		}
		if u, ok := r.(*UGAL); ok && u.Global != (m == UGALGMode) {
			t.Errorf("%s: UGAL.Global = %v", m, u.Global)
		}
	}
	if !MPMINMode.Multipath() || !MPUGALMode.Multipath() || MIN.Multipath() || UGALMode.Multipath() || UGALGMode.Multipath() {
		t.Error("Multipath() must hold for exactly MP-MIN and MP-UGAL")
	}
	for _, name := range []string{"", "MIN ", "mp", "MIN", "ugal_g"} {
		if m, err := ParseRoutingMode(name); err == nil {
			t.Errorf("ParseRoutingMode(%q) = %v, want an error", name, m)
		}
	}
	for _, m := range []RoutingMode{-1, RoutingMode(len(names))} {
		if _, err := spec.Routing(m, DefaultParams(1)); err == nil {
			t.Errorf("Spec.Routing(%d) returned no error", int(m))
		}
		if _, err := RunPoint(context.Background(), spec, m, "uniform", 0.1, DefaultParams(1)); err == nil {
			t.Errorf("RunPoint with mode %d returned no error", int(m))
		}
		if m.Multipath() {
			t.Errorf("out-of-range mode %d reports Multipath", int(m))
		}
	}
}

// faultFlags registers the shared live-fault flags once per test binary
// (a second registration on the default flag set would panic under
// -count=2).
var faultFlags = Flags()

// TestFaultFlags pins the one definition of the live-fault CLI surface:
// the retry flags layer over the default policy, Apply loads the plan
// over the run's horizon with params.Seed together with -repair-delay,
// which needs a fault source, Scripted refuses the plan flags, and the
// manifest records the generator flags plus the policy the engine will
// actually use.
func TestFaultFlags(t *testing.T) {
	set := func(kv ...string) {
		t.Helper()
		for i := 0; i < len(kv); i += 2 {
			if err := flag.Set(kv[i], kv[i+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	reset := func() {
		set("fault-plan", "", "mtbf", "0", "fault-repair", "0", "repair-delay", "0", "retries", "0", "retry-backoff", "0")
	}
	defer reset()
	reset()
	spec := must(NewSpec("ps-iq-small"))
	p := DefaultParams(5)
	p.SetCycles(400)
	if p.Warmup != 200 || p.Measure != 400 || p.Drain != 600 {
		t.Fatalf("SetCycles(400) = %d/%d/%d, want 200/400/600", p.Warmup, p.Measure, p.Drain)
	}
	p.SetCycles(0)
	if p.Measure != 400 {
		t.Fatal("SetCycles(0) changed the windows")
	}

	if faultFlags.Active() || faultFlags.retry() != DefaultRetryPolicy() {
		t.Fatalf("unset flags: Active=%v Retry=%+v", faultFlags.Active(), faultFlags.retry())
	}
	if err := faultFlags.Apply(&p, spec.Graph); err != nil || p.Plan != nil || p.Retry != (RetryPolicy{}) {
		t.Fatalf("inactive Apply touched params: plan=%v retry=%+v err=%v", p.Plan, p.Retry, err)
	}
	if m := faultFlags.Manifest(p); m != nil {
		t.Fatalf("plan-less manifest = %+v, want nil", m)
	}
	set("repair-delay", "60")
	if err := faultFlags.Apply(&p, spec.Graph); err == nil || p.RepairDelay != 0 {
		t.Fatalf("-repair-delay without a fault source: err %v, RepairDelay %d; want an error", err, p.RepairDelay)
	}
	scripted := DefaultParams(5)
	if err := faultFlags.Scripted(&scripted); err != nil || scripted.RepairDelay != 60 || scripted.Retry != DefaultRetryPolicy() {
		t.Fatalf("Scripted: err %v, RepairDelay %d, Retry %+v", err, scripted.RepairDelay, scripted.Retry)
	}

	set("mtbf", "40", "fault-repair", "90", "retries", "2", "retry-backoff", "1000")
	def := DefaultRetryPolicy()
	want := RetryPolicy{MaxRetries: 2, BackoffBase: 1000, BackoffCap: def.BackoffCap, MaxAge: def.MaxAge}
	if got := faultFlags.retry(); got != want {
		t.Errorf("layered retry = %+v, want %+v", got, want)
	}
	if err := faultFlags.Scripted(&scripted); err == nil {
		t.Error("Scripted accepted -mtbf/-fault-repair")
	}
	if err := faultFlags.Apply(&p, spec.Graph); err != nil {
		t.Fatal(err)
	}
	ref := RandomPlan(spec.Graph, 40, 90, 1200, 5)
	if p.Plan.Empty() || p.Plan.Hash() != ref.Hash() {
		t.Errorf("Apply drew %d events (hash %016x), want RandomPlan over the 1200-cycle horizon at seed 5 (%d events)",
			len(p.Plan.Events), p.Plan.Hash(), len(ref.Events))
	}
	if p.Retry != want || p.RepairDelay != 60 {
		t.Errorf("Apply set retry %+v, repair delay %d; want %+v, 60", p.Retry, p.RepairDelay, want)
	}
	m := faultFlags.Manifest(p)
	if m == nil || m.MTBF != 40 || m.Repair != 90 || m.Source != "" || m.RepairDelay != 60 ||
		m.Events != len(ref.Events) || m.Hash != fmt.Sprintf("%016x", ref.Hash()) {
		t.Fatalf("manifest %+v does not describe the applied plan", m)
	}
	// The recorded policy is the normalized one: a cap below the base is
	// clamped up, exactly as the engine runs it.
	if m.MaxRetries != 2 || m.BackoffBase != 1000 || m.BackoffCap != 1000 || m.MaxAge != def.MaxAge {
		t.Errorf("manifest retry %d/%d/%d/%d, want the effective 2/1000/1000/%d", m.MaxRetries, m.BackoffBase, m.BackoffCap, m.MaxAge, def.MaxAge)
	}
	// A zero Retry (what psserve leaves) records the default policy.
	p.Retry = RetryPolicy{}
	if m := p.FaultManifest("", 0, 0); m.MaxRetries != def.MaxRetries || m.BackoffBase != def.BackoffBase ||
		m.BackoffCap != def.BackoffCap || m.MaxAge != def.MaxAge || m.MTBF != 0 {
		t.Errorf("zero-policy manifest %+v, want the defaults %+v", m, def)
	}

	set("fault-plan", "/nonexistent/plan.txt")
	if err := faultFlags.Apply(&p, spec.Graph); err == nil {
		t.Error("Apply with an unreadable plan file returned no error")
	}
}
