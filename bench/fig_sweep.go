package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"polarstar/internal/route"
	"polarstar/internal/sim"
	"polarstar/internal/traffic"
)

// fig_sweep is psfig's fig9/fig10 core: three panels over the eight
// -small Table 3 specs, Workers=0, no Metrics and no Plan, through
// sim.Sweep, all on the fastArb path. One curve (one sim.Sweep call) is a
// unit. psfig's default scale (eight loads, windows 1000/2000/4000, 192
// engine runs) is 22 s of work on two cores and would fit a 30-s run
// once; here three loads of its ladder and a quarter of its windows make
// 72 engine runs of about 3.5 s on one P, so that each curve is timed
// eight times in a run and its best time can be taken (run.go, timed).

type figPanel struct {
	mode    sim.RoutingMode
	pattern string
}

var (
	figSpecs  = []string{"ps-iq-small", "ps-pal-small", "bf-small", "hx-small", "df-small", "sf-small", "mf-small", "ft-small"}
	figPanels = []figPanel{{sim.MIN, "uniform"}, {sim.UGALMode, "uniform"}, {sim.UGALMode, "adversarial"}}
	figLoads  = []float64{0.05, 0.3, 0.7} // idle; below the knee (at it, adversarial); saturated
)

func figParams(seed int64) sim.Params {
	p := sim.DefaultParams(seed)
	p.Warmup, p.Measure, p.Drain = 250, 500, 1000
	return p
}

// figRun is what the driver knows about one engine run from outside.
type figRun struct {
	mode      sim.RoutingMode
	load      float64
	saturated bool
	rc        float64 // routers × simulated cycles
	runNS     float64 // RunContext wall (traced runs only)
}

func runFigSweep(e *env) {
	specNames, panels := figSpecs, figPanels
	if e.smoke {
		specNames, panels = []string{"hx-small"}, figPanels[:1]
	}
	params := figParams(e.res.Seed)
	cycles := float64(params.Warmup + params.Measure + params.Drain)

	var specs []*sim.Spec
	e.setup(func(parent int) {
		specs = specs[:0]
		var buildMS float64
		for i, name := range specNames {
			d := e.tr.do(parent, "topo.spec_build", i, func(int) {
				spec, err := sim.NewSpec(name)
				e.op(err == nil, "NewSpec(%s): %v", name, err)
				specs = append(specs, spec)
			})
			buildMS += ms(d)
		}
		e.set("topo.spec_build_ms", buildMS)
		e.set("topo.specs_built", float64(len(specs)))
	})
	if e.res.Failed > 0 {
		return
	}

	var curves []sim.SweepResult   // pass 0's output, the one that is checked
	var totalRC, totalPkts float64 // simulated work of one pass
	e.passes(nil, func(parent, pass int) map[string]float64 {
		var (
			out       []sim.SweepResult
			runs      []figRun
			stepMS    = map[string]float64{} // summed layer-step times of the traced driver
			ms0, ms1  runtime.MemStats
			runID     int
			passStart = time.Now()
		)
		totalRC, totalPkts = 0, 0
		runtime.ReadMemStats(&ms0)
		for _, pn := range panels {
			for _, spec := range specs {
				var res sim.SweepResult
				var err error
				e.timed("curve/"+pn.mode.String()+"/"+pn.pattern+"/"+spec.Name, parent, "bench.sweep", runID, func(self int) {
					if e.tr != nil {
						res, err = tracedSweep(e, self, spec, pn, figLoads, params, &runID, &runs, stepMS)
					} else {
						res, err = sim.Sweep(spec, pn.mode, pn.pattern, figLoads, params)
					}
				})
				e.opsBehind(len(figLoads), err, "sweep "+spec.Name+" "+pn.mode.String()+" "+pn.pattern)
				if err != nil {
					continue
				}
				out = append(out, res)
				for _, pt := range res.Points {
					totalRC += float64(spec.Graph.N()) * cycles
					totalPkts += pt.Throughput * float64(spec.Endpoints()*params.Measure/params.PacketFlits)
				}
			}
		}
		wall := time.Since(passStart).Seconds()
		runtime.ReadMemStats(&ms1)
		if pass == 0 {
			curves = out
		}
		m := map[string]float64{
			"sim.packets_per_s":          totalPkts / wall,
			"sim.alloc_bytes_per_packet": float64(ms1.TotalAlloc-ms0.TotalAlloc) / totalPkts,
		}
		if len(runs) > 0 {
			m["sim.validate_ms"] = stepMS["sim.validate"]
			m["traffic.pattern_build_ms"] = stepMS["traffic.pattern_build"]
			m["sim.check_reachable_ms"] = stepMS["sim.check_reachable"]
			m["sim.engine_build_ms"] = stepMS["sim.engine_build"]
			m["sim.run_s"] = stepMS["sim.run"] / 1e3
			nsPerRC := func(keep func(figRun) bool) float64 {
				var ns, rc float64
				for _, r := range runs {
					if keep(r) {
						ns += r.runNS
						rc += r.rc
					}
				}
				if rc == 0 {
					return 0
				}
				return ns / rc
			}
			m["sim.min_ns_per_rc"] = nsPerRC(func(r figRun) bool { return r.mode == sim.MIN })
			m["sim.ugal_ns_per_rc"] = nsPerRC(func(r figRun) bool { return r.mode == sim.UGALMode })
			m["sim.lowload_ns_per_rc"] = nsPerRC(func(r figRun) bool { return r.load <= 0.1 })
			m["sim.sat_ns_per_rc"] = nsPerRC(func(r figRun) bool { return r.saturated })
		}
		return m
	})

	// End to end: the pass with every curve at its best time.
	wall := e.bestSum("curve/")
	e.set("wall_s", wall)
	e.set("router_mcycles_per_s", totalRC/1e6/wall)
	e.set("work_per_s", totalRC/wall)
	e.set("op_p50_ms", median(e.bests("curve/"))*1e3)

	figVerify(e, specs, panels, params, curves)
	if e.tr != nil {
		e.tr.do(-1, "bench.probe", 0, func(parent int) { figProbes(e, parent, specs) })
	}
}

// tracedSweep does what sim.Sweep does — the same worker split, the same
// per-point seeds, the same steps sim.RunPoint takes — with a span round
// each step, under the span sweep. Metrics stays nil, so the engine
// still runs fastArb.
func tracedSweep(e *env, sweep int, spec *sim.Spec, pn figPanel, loads []float64, params sim.Params,
	runID *int, runs *[]figRun, stepMS map[string]float64) (sim.SweepResult, error) {
	res := sim.SweepResult{Spec: spec.Name, Routing: pn.mode, Pattern: pn.pattern, Points: make([]sim.Result, len(loads))}

	outer := min(runtime.GOMAXPROCS(0), len(loads))
	if params.Workers <= 0 {
		params.Workers = max(runtime.GOMAXPROCS(0)/outer, 1)
	}
	base := *runID
	*runID += len(loads)
	cycles := float64(params.Warmup + params.Measure + params.Drain)

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan int)
	)
	go func() {
		defer close(next)
		for i := range loads {
			next <- i
		}
	}()
	for w := 0; w < outer; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p := params
				p.Seed = params.Seed + int64(i)*7919
				id := base + i
				point := e.tr.begin(sweep, "bench.point", id)
				steps := map[string]float64{}
				step := func(name string, fn func()) {
					steps[name] = ms(e.tr.do(point, name, id, func(int) { fn() }))
				}
				var (
					err     error
					pattern traffic.Pattern
					routing sim.Routing
					eng     *sim.Engine
					r       sim.Result
				)
				cfg := spec.Config()
				step("sim.validate", func() { err = p.Validate(cfg) })
				if err == nil {
					step("traffic.pattern_build", func() { pattern, err = spec.Pattern(pn.pattern, p.Seed) })
				}
				if err == nil {
					step("sim.check_reachable", func() { err = sim.CheckReachable(spec.Graph, cfg, pattern) })
				}
				if err == nil {
					step("sim.routing_build", func() {
						routing = spec.MinRouting()
						if pn.mode == sim.UGALMode {
							routing = spec.UGALRouting(p.PacketFlits)
						}
					})
					step("sim.engine_build", func() { eng = sim.NewEngine(p, spec.Graph, cfg, routing, pattern) })
					step("sim.run", func() { r, err = eng.RunContext(context.Background(), loads[i]) })
				}
				e.tr.end(point)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				res.Points[i] = r
				for name, v := range steps {
					stepMS[name] += v
				}
				*runs = append(*runs, figRun{
					mode: pn.mode, load: loads[i], saturated: r.Saturated,
					rc: float64(spec.Graph.N()) * cycles, runNS: steps["sim.run"] * 1e6,
				})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res, firstErr
}

// figVerify checks pass 0's curves: against the reference under
// tolerance, and one point bit for bit against a Workers=2 re-run.
func figVerify(e *env, specs []*sim.Spec, panels []figPanel, params sim.Params, curves []sim.SweepResult) {
	ref := e.ref.workload("fig_sweep")
	refAt := map[string]curveRef{}
	if ref != nil {
		for _, c := range ref.Curves {
			refAt[c.Spec+"/"+c.Routing+"/"+c.Pattern] = c
		}
	}
	endpoints := map[string]int{}
	for _, s := range specs {
		endpoints[s.Name] = s.Endpoints()
	}
	for _, c := range curves {
		got := curveRef{Spec: c.Spec, Routing: c.Routing.String(), Pattern: c.Pattern, SatLoad: c.SaturationLoad(),
			WindowPackets: float64(endpoints[c.Spec]*params.Measure) / float64(params.PacketFlits)}
		e.hashf("%s %s %s\n", c.Spec, c.Routing, c.Pattern)
		for _, p := range c.Points {
			got.Points = append(got.Points, pointRef{p.Load, p.AvgLatency, p.Throughput, p.DeliveredFrac, p.Saturated})
			e.hashf("%+v\n", p)
		}
		if e.record {
			e.res.Recorded.Curves = append(e.res.Recorded.Curves, got)
		}
		if e.smoke {
			continue
		}
		rc, ok := refAt[got.Spec+"/"+got.Routing+"/"+got.Pattern]
		e.check(ok, "%s/%s/%s: no reference curve", got.Spec, got.Routing, got.Pattern)
		if ok {
			for _, msg := range checkCurve(got, rc) {
				e.check(false, "%s", msg)
			}
		}
	}
	if len(curves) != len(specs)*len(panels) {
		return
	}
	// Determinism: the sweep ran this point on one engine worker; two
	// must reproduce it exactly.
	const li = 1
	spec, pn, c := specs[0], panels[len(panels)-1], curves[len(curves)-len(specs)]
	p := params
	p.Seed = params.Seed + int64(li)*7919
	p.Workers = 2
	r, err := sim.RunPoint(context.Background(), spec, pn.mode, pn.pattern, figLoads[li], p)
	e.op(err == nil && r == c.Points[li], "%s %s %s load %.2f: Workers=2 re-run differs from the sweep (err %v)",
		spec.Name, pn.mode, pn.pattern, figLoads[li], err)
}

// figProbes measures the layer costs fig_sweep's wall is made of but
// that cannot be seen through sim.Sweep: table builds, one path lookup,
// one destination draw.
func figProbes(e *env, parent int, specs []*sim.Spec) {
	pairs := 1_000_000
	if e.smoke {
		pairs = 10_000
	}
	var buildMS, memMiB float64
	var analytic, table *sim.Spec
	for i, s := range specs {
		t, isTable := s.MinEngine.(*route.Table)
		if !isTable {
			if analytic == nil {
				analytic = s
			}
			continue
		}
		if table == nil {
			table = s
		}
		buildMS += ms(e.tr.do(parent, "route.table_build", i, func(int) { route.NewTable(s.Graph, t.Mode()) }))
		memMiB += float64(t.MemBytes()) / (1 << 20)
	}
	e.set("route.table_build_ms", buildMS)
	e.set("route.table_mem_mb", memMiB)

	var mallocs uint64
	pathNS := func(name string, s *sim.Spec) float64 {
		if s == nil {
			return 0
		}
		rng := rand.New(rand.NewSource(e.res.Seed))
		n := s.Graph.N()
		src, dst := make([]int32, pairs), make([]int32, pairs)
		for i := range src {
			src[i], dst[i] = int32(rng.Intn(n)), int32(rng.Intn(n))
		}
		buf := make([]int, 0, sim.MaxPathNodes)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		d := e.tr.do(parent, name, 0, func(int) {
			for i := range src {
				buf = s.MinEngine.AppendPath(buf[:0], int(src[i]), int(dst[i]), rng)
			}
		})
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		return float64(d.Nanoseconds()) / float64(pairs)
	}
	e.set("route.analytic_path_ns", pathNS("route.analytic_path", analytic))
	e.set("route.table_path_ns", pathNS("route.table_path", table))
	e.set("route.path_allocs", float64(mallocs))

	// One destination draw, averaged over the uniform (rng) and
	// adversarial (table) patterns of the first spec.
	s := specs[0]
	var destNS float64
	for _, name := range []string{"uniform", "adversarial"} {
		pat, err := s.Pattern(name, e.res.Seed)
		e.op(err == nil, "pattern %s: %v", name, err)
		if err != nil {
			continue
		}
		rng := rand.New(rand.NewSource(e.res.Seed))
		eps := s.Endpoints()
		sink := 0
		d := e.tr.do(parent, "traffic.dest", 0, func(int) {
			for i := 0; i < pairs; i++ {
				sink += pat.Dest(i%eps, rng)
			}
		})
		sinkInt += sink
		destNS += float64(d.Nanoseconds()) / float64(pairs) / 2
	}
	e.set("traffic.dest_ns", destNS)
}

// sinkInt keeps probe loops from being optimised away.
var sinkInt int
