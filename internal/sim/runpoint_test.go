package sim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"polarstar/internal/graph"
)

// TestParamsValidate pins the untrusted-input contract: every parameter
// combination NewEngine would panic on (and the basic sanity bounds)
// must fail Validate, and the defaults must pass.
func TestParamsValidate(t *testing.T) {
	spec, err := NewSpec("ps-iq-small")
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config()
	if err := DefaultParams(1).Validate(cfg); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	mut := func(f func(*Params)) Params {
		p := DefaultParams(1)
		f(&p)
		return p
	}
	bad := map[string]Params{
		"zero packet flits": mut(func(p *Params) { p.PacketFlits = 0 }),
		"buffer under one packet": mut(func(p *Params) {
			p.BufFlitsPerVC = p.PacketFlits - 1
		}),
		"33-flit buffer":        mut(func(p *Params) { p.BufFlitsPerVC = 33 }),
		"negative link latency": mut(func(p *Params) { p.LinkLatency = -1 }),
		"negative warmup":       mut(func(p *Params) { p.Warmup = -1 }),
		"zero measure":          mut(func(p *Params) { p.Measure = 0 }),
		"negative drain":        mut(func(p *Params) { p.Drain = -1 }),
		"calendar overflow": mut(func(p *Params) {
			p.Warmup, p.Measure, p.Drain = 1<<38, 1<<38, 1<<38
		}),
	}
	for name, p := range bad {
		if err := p.Validate(cfg); err == nil {
			t.Errorf("%s: accepted %+v", name, p)
		}
	}
}

// TestDegreeGuard pins the one graph limit of the packet record: hops are
// one-byte adjacency slots, so a router of degree 300 is refused — as an
// error by CheckDegree and RunPoint, and by a descriptive panic from
// NewEngine — while a star of degree 255, whose hub uses slot 254, runs.
func TestDegreeGuard(t *testing.T) {
	star := func(leaves int) *Spec {
		b := graph.NewBuilder(fmt.Sprintf("star-%d", leaves), leaves+1)
		for v := 1; v <= leaves; v++ {
			b.AddEdge(0, v)
		}
		return tableSpec(fmt.Sprintf("star-%d", leaves), b.Build(), 1)
	}
	p := DefaultParams(1)
	p.SetCycles(300)

	wide := star(300)
	if err := CheckDegree(wide.Graph); err == nil || !strings.Contains(err.Error(), "degree 300") {
		t.Errorf("CheckDegree(star-300) = %v, want a degree 300 error", err)
	}
	if _, err := RunPoint(context.Background(), wide, MIN, "uniform", 0.1, p); err == nil || !strings.Contains(err.Error(), "degree 300") {
		t.Errorf("RunPoint(star-300) = %v, want a degree 300 error", err)
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "degree 300") {
				t.Errorf("NewEngine(star-300) panicked with %q, want a degree 300 message", msg)
			}
		}()
		NewEngine(p, wide.Graph, wide.Config(), wide.MinRouting(), must(wide.Pattern("uniform", p.Seed)))
	}()

	full := star(255)
	if err := CheckDegree(full.Graph); err != nil {
		t.Fatal(err)
	}
	res, err := RunPoint(context.Background(), full, MIN, "uniform", 0.1, p)
	if err != nil || res.DeliveredFrac == 0 {
		t.Errorf("RunPoint(star-255) = %+v, %v: want packets delivered through slot 254", res, err)
	}
}

// TestValidLoad pins the one offered-load check every entry point uses:
// (0, 1], with NaN and both infinities outside it.
func TestValidLoad(t *testing.T) {
	for load, want := range map[float64]bool{
		math.NaN(): false, math.Inf(1): false, math.Inf(-1): false,
		0: false, -0.2: false, 1.5: false,
		math.SmallestNonzeroFloat64: true, 0.3: true, 1: true,
	} {
		if got := ValidLoad(load); got != want {
			t.Errorf("ValidLoad(%g) = %v, want %v", load, got, want)
		}
	}
}

// TestRunPointErrors pins that RunPoint turns every invalid input into
// an error — it is the entry point the serving layer feeds with
// untrusted requests.
func TestRunPointErrors(t *testing.T) {
	spec, err := NewSpec("ps-iq-small")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, load := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1.01, 1.5} {
		if _, err := RunPoint(ctx, spec, MIN, "uniform", load, DefaultParams(1)); err == nil {
			t.Errorf("accepted load %g", load)
		}
	}
	if _, err := RunPoint(ctx, spec, MIN, "no-such-pattern", 0.1, DefaultParams(1)); err == nil {
		t.Error("accepted unknown pattern")
	}
	// Invalid parameters, the calendar overflow NewEngine would panic on
	// among them, come back as errors from RunPoint and Sweep alike.
	for name, mutate := range map[string]func(*Params){
		"PacketFlits=0":     func(p *Params) { p.PacketFlits = 0 },
		"BufFlitsPerVC=1":   func(p *Params) { p.BufFlitsPerVC = 1 },
		"Measure=0":         func(p *Params) { p.Measure = 0 },
		"Warmup=-1":         func(p *Params) { p.Warmup = -1 },
		"calendar overflow": func(p *Params) { p.Warmup, p.Measure, p.Drain = 1<<38, 1<<38, 1<<38 },
	} {
		p := DefaultParams(1)
		mutate(&p)
		if _, err := RunPoint(ctx, spec, MIN, "uniform", 0.1, p); err == nil {
			t.Errorf("RunPoint accepted %s", name)
		}
		if _, err := Sweep(spec, MIN, "uniform", []float64{0.1}, p); err == nil {
			t.Errorf("Sweep accepted %s", name)
		}
	}
	p := DefaultParams(1)
	p.Plan = &Plan{Events: []FaultEvent{{Cycle: 1, Kind: LinkDown, U: 0, V: -1}}}
	if _, err := RunPoint(ctx, spec, MIN, "uniform", 0.1, p); err == nil {
		t.Error("accepted invalid fault plan")
	}
}

// TestRunPointCancellation: a pre-cancelled context must stop the run
// with the context's error, and the engine must stay consumed (no
// leaked pool goroutines — the race detector would catch reuse).
func TestRunPointCancellation(t *testing.T) {
	spec, err := NewSpec("ps-iq-small")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunPoint(ctx, spec, MIN, "uniform", 0.1, DefaultParams(1)); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestRunPointMatchesSweep pins the refactor: a Sweep is exactly its
// RunPoints — the sweep path and the service path produce identical
// Results for the same tuple.
func TestRunPointMatchesSweep(t *testing.T) {
	spec, err := NewSpec("ps-iq-small")
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(3)
	p.Warmup, p.Measure, p.Drain = 100, 200, 300
	p.Workers = 2
	loads := []float64{0.1, 0.3}
	sweep, err := Sweep(spec, MIN, "uniform", loads, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, load := range loads {
		pp := p
		pp.Seed = p.Seed + int64(i)*7919 // the sweep's per-point seed schedule
		point, err := RunPoint(context.Background(), spec, MIN, "uniform", load, pp)
		if err != nil {
			t.Fatal(err)
		}
		if point != sweep.Points[i] {
			t.Errorf("load %g: RunPoint %+v != Sweep point %+v", load, point, sweep.Points[i])
		}
	}
}

// TestRunPointSharesLanesAcrossRuns: a spec builds its multipath lanes
// once and concurrent runs share them (psserve runs requests on one built
// spec). Eight concurrent mp-min runs must equal the run of a fresh spec,
// and -race must see no unsynchronised access to the lane cache.
func TestRunPointSharesLanesAcrossRuns(t *testing.T) {
	p := DefaultParams(5)
	p.Warmup, p.Measure, p.Drain = 100, 200, 300
	run := func(spec *Spec) (Result, error) {
		return RunPoint(context.Background(), spec, MPMINMode, "uniform", 0.3, p)
	}
	fresh, err := NewSpec("ps-iq-small")
	if err != nil {
		t.Fatal(err)
	}
	want, err := run(fresh)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewSpec("ps-iq-small")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]Result, 8)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run(shared)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want {
			t.Errorf("concurrent run %d: %+v, fresh spec: %+v", i, got[i], want)
		}
	}
	if len(shared.lanes) != 1 {
		t.Errorf("spec holds %d lane structures after 8 runs at one lane count, want 1", len(shared.lanes))
	}
}
