package sim

import (
	"bytes"
	"context"
	"testing"

	"polarstar/internal/obs"
)

// obsRun runs one observed simulation and returns the Result + metrics.
func obsRun(t *testing.T, specName string, mode RoutingMode, workers, interval int) (Result, *obs.SimRun) {
	t.Helper()
	spec := must(NewSpec(specName))
	p := DefaultParams(7)
	p.Warmup, p.Measure, p.Drain = 300, 600, 900
	p.Workers = workers
	p.Metrics = &obs.SimRun{}
	p.MetricsInterval = interval
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
	return eng.Run(0.3), p.Metrics
}

// TestMetricsDoNotPerturbResults pins the non-interference contract:
// enabling telemetry changes no Result bit, for MIN and UGAL, below
// saturation and deep in it (where nearly every unit is parked), without
// a fault plan and with one whose only event lies past the horizon (the
// fault hooks run, nothing ever fails). The two plan states are not
// compared with each other: an active plan widens the VC ladder to cover
// detour paths, a model difference the saturated Results show.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	e := spec.Graph.Edges()[0]
	late := &Plan{Events: []FaultEvent{{Cycle: 1 << 20, Kind: LinkDown, U: e[0], V: e[1]}}}
	for _, c := range []struct {
		mode RoutingMode
		load float64
		plan *Plan
	}{
		{MIN, 0.3, nil}, {UGALMode, 0.3, nil}, {UGALMode, 0.95, nil},
		{MIN, 0.3, late}, {UGALMode, 0.95, late},
	} {
		p := DefaultParams(7)
		p.Warmup, p.Measure, p.Drain = 300, 600, 900
		p.Workers = 2
		p.Plan = c.plan
		plain, err := RunPoint(context.Background(), spec, c.mode, "uniform", c.load, p)
		if err != nil {
			t.Fatal(err)
		}
		p.Metrics = &obs.SimRun{}
		p.MetricsInterval = 100
		observed, err := RunPoint(context.Background(), spec, c.mode, "uniform", c.load, p)
		if err != nil {
			t.Fatal(err)
		}
		if observed != plain {
			t.Errorf("%v load %g plan %v: observed result %+v differs from plain %+v",
				c.mode, c.load, c.plan != nil, observed, plain)
		}
	}
}

// TestStallConservation checks the stall accounting of a congested run —
// adversarial traffic keeps most units parked for credit — against
// itself: the four stall counters add up to the last interval row's
// Stalled (the row lands on the run's last cycle), the per-VC credit
// vector adds up to stall_credit, and the totals do not depend on whether
// an interval series was sampled along the way (spans settled in passing
// by rows vs only at the end of the run).
func TestStallConservation(t *testing.T) {
	run := func(interval int) *obs.SimRun {
		p := DefaultParams(3)
		p.Warmup, p.Measure, p.Drain = 300, 600, 300
		p.Workers = 2
		p.Metrics = &obs.SimRun{}
		p.MetricsInterval = interval
		if _, err := RunPoint(context.Background(), must(NewSpec("ps-iq-small")), UGALMode, "adversarial", 0.6, p); err != nil {
			t.Fatal(err)
		}
		return p.Metrics
	}
	m := run(100)
	stalls := [4]int64{m.StallInject.Value(), m.StallEject.Value(), m.StallChannel.Value(), m.StallCredit.Value()}
	if stalls[3] == 0 || stalls[2] == 0 {
		t.Fatalf("run is not congested: stalls %v", stalls)
	}
	last := m.Series[len(m.Series)-1]
	if last.Cycle != 1200 {
		t.Fatalf("last row at cycle %d, want the run's end 1200", last.Cycle)
	}
	if sum := stalls[0] + stalls[1] + stalls[2] + stalls[3]; sum != last.Stalled {
		t.Errorf("stall counters sum to %d, last interval row has %d", sum, last.Stalled)
	}
	var perVC int64
	for _, n := range m.CreditStallVC {
		perVC += n
	}
	if perVC != stalls[3] {
		t.Errorf("per-VC credit stalls %d != stall_credit %d", perVC, stalls[3])
	}
	u := run(0)
	if got := [4]int64{u.StallInject.Value(), u.StallEject.Value(), u.StallChannel.Value(), u.StallCredit.Value()}; got != stalls {
		t.Errorf("stalls without an interval series %v differ from %v with one", got, stalls)
	}
}

// TestMetricsConsistency checks the internal accounting of one observed
// run: generated = injected + lost, delivered packets match the Result,
// the latency histogram covers exactly the measured deliveries, and the
// quantile ladder is ordered.
func TestMetricsConsistency(t *testing.T) {
	res, m := obsRun(t, "ps-iq-small", MIN, 1, 0)
	if m.Generated.Value() != m.Injected.Value()+m.Lost.Value() {
		t.Errorf("generated %d != injected %d + lost %d",
			m.Generated.Value(), m.Injected.Value(), m.Lost.Value())
	}
	if m.Lost.Value() != 0 {
		t.Errorf("intact topology lost %d packets", m.Lost.Value())
	}
	if m.Delivered.Value() == 0 || m.Delivered.Value() > m.Injected.Value() {
		t.Errorf("delivered %d out of range (injected %d)", m.Delivered.Value(), m.Injected.Value())
	}
	if got := m.Latency.Mean(); res.AvgLatency != got {
		t.Errorf("latency histogram mean %v != Result.AvgLatency %v", got, res.AvgLatency)
	}
	if m.Latency.Max() != res.MaxLatency {
		t.Errorf("latency histogram max %d != Result.MaxLatency %d", m.Latency.Max(), res.MaxLatency)
	}
	p50, p95, p99 := m.Latency.Quantile(0.5), m.Latency.Quantile(0.95), m.Latency.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99 && p99 <= m.Latency.Max()) {
		t.Errorf("quantile ladder not ordered: p50=%d p95=%d p99=%d max=%d",
			p50, p95, p99, m.Latency.Max())
	}
	if m.OccHWM.Max() == 0 {
		t.Error("no channel ever held a flit despite delivered traffic")
	}
	if len(m.CreditStallVC) == 0 {
		t.Error("per-VC credit stall vector not sized")
	}
	var perVC int64
	for _, n := range m.CreditStallVC {
		perVC += n
	}
	if perVC != m.StallCredit.Value() {
		t.Errorf("per-VC credit stalls %d != total credit stalls %d", perVC, m.StallCredit.Value())
	}
}

// TestMetricsIntervalSeries checks the -metrics-interval series: rows at
// exact cycle multiples, cumulative and monotone, final row consistent
// with the end-of-run counters.
func TestMetricsIntervalSeries(t *testing.T) {
	const interval = 150
	_, m := obsRun(t, "bf-small", MIN, 2, interval)
	total := 300 + 600 + 900
	if want := total / interval; len(m.Series) != want {
		t.Fatalf("series has %d rows, want %d", len(m.Series), want)
	}
	var prev obs.IntervalRow
	for i, row := range m.Series {
		if row.Cycle != int64((i+1)*interval) {
			t.Errorf("row %d at cycle %d, want %d", i, row.Cycle, (i+1)*interval)
		}
		if row.Generated < prev.Generated || row.Injected < prev.Injected ||
			row.Delivered < prev.Delivered || row.Stalled < prev.Stalled {
			t.Errorf("row %d not monotone: %+v after %+v", i, row, prev)
		}
		prev = row
	}
	last := m.Series[len(m.Series)-1]
	if last.Generated != m.Generated.Value() || last.Delivered != m.Delivered.Value() {
		t.Errorf("final row %+v inconsistent with totals gen=%d del=%d",
			last, m.Generated.Value(), m.Delivered.Value())
	}
}

// TestMetricsDeterministicAcrossWorkers pins the artifact-level
// guarantee: the full metrics JSON — counters, histograms, per-channel
// marks and interval series — is byte-identical for any worker count.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	marshal := func(workers int) []byte {
		_, m := obsRun(t, "ps-iq-small", UGALMode, workers, 200)
		r := obs.NewRun("test")
		r.Sim = &obs.SimSweep{Spec: "ps-iq-small", Routing: "UGAL", Pattern: "uniform", Points: []*obs.SimRun{m}}
		data, err := r.Marshal(false)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ref := marshal(1)
	for _, workers := range []int{2, numShards} {
		if got := marshal(workers); !bytes.Equal(got, ref) {
			t.Errorf("metrics JSON differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestSweepObs checks the sweep-level plumbing: every load point gets an
// independent SimRun whose echoed fields match the sweep's Results.
func TestSweepObs(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	p := DefaultParams(3)
	p.Warmup, p.Measure, p.Drain = 200, 400, 600
	loads := []float64{0.1, 0.3}
	sm := obs.NewSimSweep(spec.Name, MIN.String(), "uniform", len(loads))
	res, err := SweepObs(spec, MIN, "uniform", loads, p, sm)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range res.Points {
		m := sm.Points[i]
		if m.Load != pt.Load || m.AvgLatency != pt.AvgLatency ||
			m.DeliveredFrac != pt.DeliveredFrac || m.Saturated != pt.Saturated {
			t.Errorf("point %d: metrics echo %+v inconsistent with result %+v", i, m, pt)
		}
		if m.Delivered.Value() == 0 {
			t.Errorf("point %d: no deliveries recorded", i)
		}
	}
}
