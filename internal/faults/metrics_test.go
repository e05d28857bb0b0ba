package faults

import (
	"math"
	"reflect"
	"testing"

	"polarstar/internal/obs"
	"polarstar/internal/sim"
	"polarstar/internal/topo"
)

// TestMedianTrialObsDoesNotPerturb pins the non-interference contract on
// the structural sweep: the returned Trial is identical with telemetry
// on or off.
func TestMedianTrialObsDoesNotPerturb(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	fracs := []float64{0, 0.2, 0.4, 0.6}
	plain := must(MedianTrial(ps.G, nil, 7, 11, fracs))
	var fm obs.FaultSweep
	observed := must(MedianTrialObs(ps.G, nil, 7, 11, fracs, &fm))
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("observed trial %+v differs from plain %+v", observed, plain)
	}
}

// TestMedianTrialObsAccounting checks the sweep-level record: the intact
// diameter, one ranked trial per scenario, and the median trial's point
// and damage counters.
func TestMedianTrialObsAccounting(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	fracs := []float64{0, 0.2, 0.4, 0.6, 0.8}
	const trials = 7
	var fm obs.FaultSweep
	tr := must(MedianTrialObs(ps.G, nil, trials, 11, fracs, &fm))
	if fm.IntactDiameter != 3 {
		t.Errorf("intact diameter %d, want 3 (PolarStar)", fm.IntactDiameter)
	}
	if len(fm.Trials) != trials {
		t.Fatalf("recorded %d ranked trials, want %d", len(fm.Trials), trials)
	}
	found := false
	for _, rt := range fm.Trials {
		if rt.Seed == tr.Seed && rt.DisconnectionRatio == tr.DisconnectionRatio {
			found = true
		}
	}
	if !found {
		t.Error("median trial's seed not among the ranked trials")
	}
	m := fm.Median
	if m == nil {
		t.Fatal("median trial record missing")
	}
	if m.Seed != tr.Seed || m.DisconnectionRatio != tr.DisconnectionRatio {
		t.Errorf("median record %+v inconsistent with trial seed=%d ratio=%f",
			m, tr.Seed, tr.DisconnectionRatio)
	}
	if m.PointsConnected+m.PointsDisconnected != len(fracs) {
		t.Errorf("point counts %d+%d != %d sampled fractions",
			m.PointsConnected, m.PointsDisconnected, len(fracs))
	}
	// The curve's connectivity verdicts must match the counters.
	conn := 0
	for _, p := range tr.Curve {
		if p.Connected {
			conn++
		}
	}
	if conn != m.PointsConnected {
		t.Errorf("counter says %d connected points, curve has %d", m.PointsConnected, conn)
	}
	if m.PointsDisconnected > 0 && m.LostPairs.Value() == 0 {
		t.Error("disconnected points sampled but no lost pairs recorded")
	}
	if m.MaxDiameter < fm.IntactDiameter {
		t.Errorf("max diameter %d below intact %d", m.MaxDiameter, fm.IntactDiameter)
	}
	if m.DegradedPoints > len(fracs) {
		t.Errorf("degraded points %d exceeds sampled points", m.DegradedPoints)
	}
}

// TestTrafficSweepValidation pins the degraded-traffic input checks.
func TestTrafficSweepValidation(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	p := sim.DefaultParams(3)
	p.Warmup, p.Measure, p.Drain = 50, 100, 150
	for _, load := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.2, 1.5} {
		if _, err := TrafficSweep(spec, sim.MIN, "uniform", load, []float64{0}, p, 5, nil); err == nil {
			t.Errorf("offered load %g accepted", load)
		}
	}
	if _, err := TrafficSweep(spec, sim.MIN, "uniform", 0.2, []float64{0.4, 0.2}, p, 5, nil); err == nil {
		t.Error("descending failure fractions accepted")
	}
	// Engine parameters go through sim.Params.Validate, as in RunPoint:
	// nonsense and calendar-overflowing windows are errors, not runs or
	// NewEngine panics.
	for name, mutate := range map[string]func(*sim.Params){
		"PacketFlits=0":   func(p *sim.Params) { p.PacketFlits = 0 },
		"BufFlitsPerVC=1": func(p *sim.Params) { p.BufFlitsPerVC = 1 },
		"Measure=0":       func(p *sim.Params) { p.Measure = 0 },
		"Warmup=-1":       func(p *sim.Params) { p.Warmup = -1 },
		"LinkLatency<0":   func(p *sim.Params) { p.LinkLatency = -1 },
		"Warmup=1<<40":    func(p *sim.Params) { p.Warmup = 1 << 40 },
		"Lanes=99":        func(p *sim.Params) { p.Lanes = 99 },
		"RepairDelay<0":   func(p *sim.Params) { p.RepairDelay = -1 },
	} {
		bad := p
		mutate(&bad)
		if _, err := TrafficSweep(spec, sim.MIN, "uniform", 0.2, []float64{0}, bad, 5, nil); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := TrafficSweep(spec, sim.RoutingMode(99), "uniform", 0.2, []float64{0}, p, 5, nil); err == nil {
		t.Error("out-of-range routing mode accepted")
	}
}

// TestTrafficSweepObs pins non-interference and the per-point SimRun
// plumbing of the degraded-traffic sweep.
func TestTrafficSweepObs(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	p := sim.DefaultParams(3)
	p.Warmup, p.Measure, p.Drain = 100, 200, 300
	p.Workers = 2
	fracs := []float64{0, 0.15}
	plain, err := TrafficSweep(spec, sim.MIN, "uniform", 0.2, fracs, p, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ft obs.FaultTraffic
	observed, err := TrafficSweep(spec, sim.MIN, "uniform", 0.2, fracs, p, 5, &ft)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Error("observed traffic sweep differs from plain")
	}
	if ft.Spec != spec.Name || ft.Load != 0.2 || len(ft.Points) != len(fracs) {
		t.Fatalf("sweep record %+v malformed", ft)
	}
	for i, pt := range ft.Points {
		if pt.FailFrac != fracs[i] || pt.Removed != observed[i].Removed {
			t.Errorf("point %d: structural echo %+v inconsistent with result %+v", i, pt, observed[i])
		}
		if pt.Sim == nil || pt.Sim.Delivered.Value() == 0 {
			t.Errorf("point %d: no simulator metrics attached", i)
		}
		if pt.Sim.AvgLatency != observed[i].AvgLatency {
			t.Errorf("point %d: echoed latency %f != result %f", i, pt.Sim.AvgLatency, observed[i].AvgLatency)
		}
		// Past the disconnection threshold, packets on unreachable pairs
		// are recorded as lost.
		if pt.Removed > 0 && observed[i].DeliveredFrac < 1 && pt.Sim.Lost.Value() == 0 &&
			pt.Sim.Delivered.Value() == pt.Sim.Injected.Value() {
			t.Errorf("point %d: degraded run shows no loss in metrics", i)
		}
	}
}
