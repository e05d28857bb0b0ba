package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"polarstar/internal/faults"
	"polarstar/internal/obs"
	"polarstar/internal/sim"
)

// fault_resilience is the EXPERIMENTS E17 live-fault recipe on ps-iq-43
// through faults.ResilienceSweepObs with the obs section attached, then
// the artifact marshal: every engine run has Metrics and (past count 0)
// an active Plan, so none of it runs fastArb. One call per routing mode
// and failure count is a unit (the points share pattern and seed and
// their plans are prefixes of one kill order, so eight calls do the work
// of one call with four modes and two counts, split at its points). E17 as
// written (four failure counts, 30 000-cycle runs) is 18 s of work; here
// its end points (no failures, 32) at half its time scale — windows,
// MTBF, repair time and repair delay all halved — make eight engine runs
// of about 3.4 s, so that each unit is timed eight times in a run and its
// best time can be taken (run.go, timed). Each engine runs on one worker:
// two workers meet at a barrier every simulated cycle, so a moment's
// delay of either vCPU stalls both, and on the 2-vCPU sandbox the
// parallel engine is both slower on this 168-router network (4.7-6.0 s
// a pass against 3.8 s) and far noisier; sim.worker_scaling (serve_mix's
// traced run) is where the parallel engine is measured.

var resModes = []sim.RoutingMode{sim.MIN, sim.UGALMode, sim.MPMINMode, sim.MPUGALMode}

const resLoad = 0.3

func resConfig(seed int64, smoke bool) (faults.ResilienceConfig, sim.Params) {
	cfg := faults.ResilienceConfig{
		Modes: resModes, Counts: []int{0, 32},
		Load: resLoad, TargetLanes: 2, MTBF: 100, Repair: 400, RepairDelay: 500, Seed: seed,
	}
	p := sim.DefaultParams(seed)
	p.Warmup, p.Measure, p.Drain = p.Warmup/2, p.Measure/2, p.Drain/2
	p.Workers = 1 // see above: the barrier-synchronised parallel engine measures the host's scheduler
	if smoke {
		cfg.Modes, cfg.Counts = []sim.RoutingMode{sim.MIN, sim.MPUGALMode}, []int{0, 8}
		p.Warmup, p.Measure, p.Drain = 500, 1000, 1500
	}
	return cfg, p
}

func runFaultResilience(e *env) {
	cfg, params := resConfig(e.res.Seed, e.smoke)
	horizon := float64(params.Warmup + params.Measure + params.Drain)

	var spec *sim.Spec
	e.setup(func(parent int) {
		d := e.tr.do(parent, "topo.spec_build", 0, func(int) {
			var err error
			spec, err = sim.NewSpec("ps-iq-43")
			e.op(err == nil, "NewSpec(ps-iq-43): %v", err)
		})
		e.set("topo.spec_build_ms", ms(d))
		e.set("topo.specs_built", 1)
	})
	if e.res.Failed > 0 {
		return
	}

	var curves []faults.ResilienceCurve // pass 0's output
	var passRC float64                  // routers × simulated cycles of one pass
	e.passes(nil, func(parent, pass int) map[string]float64 {
		m := map[string]float64{}
		start := time.Now()
		fr := &obs.FaultResilience{}
		var out []faults.ResilienceCurve
		var sweepMS float64
		for i, mode := range cfg.Modes {
			name := strings.ToLower(mode.String())
			var curve faults.ResilienceCurve
			var modeS float64
			for j, count := range cfg.Counts {
				one, frOne := cfg, &obs.FaultResilience{}
				one.Modes, one.Counts = []sim.RoutingMode{mode}, []int{count}
				d := e.timed(fmt.Sprintf("call/sweep/%s/%d", name, count), parent, "faults.resilience_sweep", i*len(cfg.Counts)+j, func(int) {
					c, err := faults.ResilienceSweepObs(spec, one, params, frOne)
					e.opsBehind(1, err, fmt.Sprintf("resilience sweep %s with %d failures", mode, count))
					if err != nil {
						return
					}
					if j == 0 {
						curve = c[0]
					} else {
						curve.Points = append(curve.Points, c[0].Points...)
					}
				})
				modeS += d.Seconds()
				switch {
				case len(frOne.Curves) == 0: // the call failed
				case i == 0 && j == 0:
					*fr = *frOne
				case j == 0:
					fr.Curves = append(fr.Curves, frOne.Curves[0])
				default:
					oc := fr.Curves[len(fr.Curves)-1]
					oc.Points = append(oc.Points, frOne.Curves[0].Points...)
				}
			}
			out = append(out, curve)
			m["faults.mode_s."+name] = modeS
			sweepMS += modeS * 1e3
		}

		art := obs.NewRun("bench")
		art.Manifest.Spec, art.Manifest.Pattern, art.Manifest.Seed = spec.Name, "uniform", e.res.Seed
		art.FaultResilience = fr
		var body []byte
		d := e.timed("call/marshal", parent, "obs.marshal", 0, func(int) {
			var err error
			body, err = art.Marshal(false)
			e.op(err == nil && len(body) > 0, "artifact marshal: %v", err)
		})
		wall := time.Since(start).Seconds()
		m["obs.marshal_ms"] = ms(d)
		m["obs.artifact_mb"] = float64(len(body)) / (1 << 20)

		// Simulated work and the engine's own counters, read from the
		// attached obs section (they repeat exactly at a fixed seed).
		var rc float64
		sum := map[string]float64{}
		for _, c := range fr.Curves {
			for _, p := range c.Points {
				s := p.Sim
				cycles := horizon
				if s.Faults != nil && s.Faults.TerminatedEarly {
					cycles = float64(s.Faults.TerminatedAt)
				}
				rc += float64(spec.Graph.N()) * cycles
				sum["sim.generated"] += float64(s.Generated)
				sum["sim.delivered"] += float64(s.Delivered)
				sum["sim.lost"] += float64(s.Lost)
				sum["sim.stall_inject"] += float64(s.StallInject)
				sum["sim.stall_channel"] += float64(s.StallChannel)
				sum["sim.stall_credit"] += float64(s.StallCredit)
				if f := s.Faults; f != nil {
					sum["sim.lost"] += float64(f.LostRetryBudget + f.LostTimeout + f.LostStranded)
					sum["sim.retries"] += float64(f.Retries)
					sum["sim.dropped_in_flight"] += float64(f.DroppedInFlight)
					sum["sim.events_applied"] += float64(f.EventsApplied)
				}
				if l := s.Lanes; l != nil {
					for _, n := range l.Failovers {
						sum["sim.lane_failovers"] += float64(n)
					}
					sum["sim.lane_demotions"] += float64(l.Demoted)
					sum["sim.lane_promotions"] += float64(l.Promoted)
				}
			}
		}
		for k, v := range sum {
			m[k] = v
		}
		passRC = rc
		m["sim.faulted_ns_per_rc"] = sweepMS * 1e6 / rc
		m["sim.packets_per_s"] = sum["sim.generated"] / wall
		if pass == 0 {
			curves = out
		}
		return m
	})

	// End to end: the pass with every call at its best time.
	wall := e.bestSum("call/")
	e.set("wall_s", wall)
	e.set("router_mcycles_per_s", passRC/1e6/wall)
	e.set("work_per_s", passRC/wall)
	e.set("op_p50_ms", median(e.bests("call/sweep/"))*1e3)

	resVerify(e, spec, cfg, params, curves)
	if e.tr != nil {
		e.tr.do(-1, "bench.probe", 0, func(parent int) { forkProbes(e, parent) })
	}
}

func resVerify(e *env, spec *sim.Spec, cfg faults.ResilienceConfig, params sim.Params, curves []faults.ResilienceCurve) {
	var got []resRef
	for _, c := range curves {
		for _, p := range c.Points {
			got = append(got, resRef{Mode: c.Mode.String(), Failures: p.Failures, Throughput: p.Throughput, Lost: p.Lost})
			e.hashf("%s %d %+v\n", c.Mode, p.Failures, p.Result)
		}
	}
	if e.record {
		e.res.Recorded.Resilience = got
	}
	if ref := e.ref.workload("fault_resilience"); !e.smoke {
		e.check(ref != nil, "fault_resilience: no reference")
		if ref != nil {
			for _, msg := range checkResilience(got, ref.Resilience, cfg.Load) {
				e.check(false, "%s", msg)
			}
		}
	}
	if e.res.Failed > 0 { // a sweep call failed: there is no complete curve to re-run a point of
		return
	}
	// Determinism: one faulted multipath point again, on two engine workers
	// instead of one and with telemetry detached — Workers and Metrics must
	// not move a bit.
	last := curves[len(curves)-1]
	one := cfg
	one.Modes, one.Counts = []sim.RoutingMode{last.Mode}, cfg.Counts[1:2]
	p := params
	p.Workers = 2
	again, err := faults.ResilienceSweep(spec, one, p)
	same := err == nil && len(again) == 1 && len(again[0].Points) == 1 && again[0].Points[0] == last.Points[1]
	e.op(same, "%s with %d failures: parallel re-run without telemetry differs (err %v)", last.Mode, one.Counts[0], err)
}

// forkProbes measures what attaching telemetry or a fault plan costs the
// engine: the same ps-iq-small UGAL 0.3 point run detached (fastArb),
// with Metrics, and with a one-link plan; ratios are cycles/s attached ÷
// detached, so 1.0 means the fork costs nothing.
func forkProbes(e *env, parent int) {
	spec, err := sim.NewSpec("ps-iq-small")
	e.op(err == nil, "NewSpec(ps-iq-small): %v", err)
	if err != nil {
		return
	}
	base := figParams(e.res.Seed)
	reps := 3
	if e.smoke {
		base.Warmup, base.Measure, base.Drain = 200, 400, 800
		reps = 1
	}
	edge := spec.Graph.Edges()[0]
	timeIt := func(name string, attach func(*sim.Params)) float64 {
		var walls []float64
		for i := 0; i < reps; i++ {
			p := base
			attach(&p)
			d := e.tr.do(parent, name, i, func(int) {
				_, err := sim.RunPoint(context.Background(), spec, sim.UGALMode, "uniform", 0.3, p)
				e.op(err == nil, "%s: %v", name, err)
			})
			walls = append(walls, d.Seconds())
		}
		return median(walls)
	}
	detached := timeIt("sim.point_detached", func(*sim.Params) {})
	metrics := timeIt("sim.point_metrics", func(p *sim.Params) { p.Metrics = &obs.SimRun{} })
	plan := timeIt("sim.point_plan", func(p *sim.Params) {
		p.Plan = &sim.Plan{Events: []sim.FaultEvent{{Cycle: int64(p.Warmup), Kind: sim.LinkDown, U: edge[0], V: edge[1]}}}
	})
	e.set("sim.metrics_on_ratio", detached/metrics)
	e.set("sim.plan_on_ratio", detached/plan)
}
