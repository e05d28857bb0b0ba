package main

import (
	"fmt"
	"math/rand"
	"time"

	"polarstar/internal/faults"
	"polarstar/internal/graph"
	"polarstar/internal/route"
	"polarstar/internal/search"
	"polarstar/internal/sim"
	"polarstar/internal/topo"
)

// graph_search runs no cycle simulation: all-pairs BFS, histogram, table
// and EDST builds, the structural Fig 14 sweep and the annealing search,
// at a size whose distance rows fit cache (jellyfish 4096) and one whose
// do not (PolarStar-IQ(23,11), 13 272 routers). Every call is a unit and
// happens once in a pass; the pass is about 2.1 s on one P, so that a
// 30-s run times each unit thirteen times and its best time can be taken
// (run.go, timed). That is why the search is short (100 proposals) and
// Fig 14 takes 20 trials a spec, why the search at 13 272 routers runs
// once a run outside the pass, and why the 1.3-s EDST build there and
// the serial-against-parallel all-pairs comparison are layer probes of
// the traced run.

// laneHopCap is the per-lane hop bound the simulator passes to
// route.NewMultiPath (its packet path stride).
const laneHopCap = sim.MaxPathNodes - 1

type graphSizes struct {
	trials                    int // Fig 14 trials per spec
	epochs, iters4k, iters13k int // × 2 searchers = proposals
	fig14Specs                []string
	largeQ, largeD            int
	jellyN                    int
	walkSwaps                 int
}

func graphSizing(smoke bool) graphSizes {
	if smoke {
		return graphSizes{trials: 3, epochs: 1, iters4k: 5, iters13k: 2,
			fig14Specs: []string{"hx-small"}, largeQ: 5, largeD: 4, jellyN: 256, walkSwaps: 5}
	}
	return graphSizes{trials: 20, epochs: 2, iters4k: 25, iters13k: 5,
		fig14Specs: sim.Table3Names, largeQ: 23, largeD: 11, jellyN: 4096, walkSwaps: 200}
}

type graphState struct {
	large, mid *topo.PolarStar // PolarStar-IQ(23,11) and PS-IQ(11,3)
	jelly      *graph.Graph
	fig14      []*sim.Spec
}

func runGraphSearch(e *env) {
	sz := graphSizing(e.smoke)
	var st graphState
	e.setup(func(parent int) {
		st = graphState{}
		var err error
		d := e.tr.do(parent, "topo.ps_large_build", 0, func(int) { st.large, err = topo.NewPolarStar(sz.largeQ, sz.largeD, topo.KindIQ) })
		e.op(err == nil, "NewPolarStar(%d,%d): %v", sz.largeQ, sz.largeD, err)
		e.set("topo.ps_large_build_ms", ms(d))
		e.tr.do(parent, "topo.ps_mid_build", 0, func(int) { st.mid, err = topo.NewPolarStar(11, 3, topo.KindIQ) })
		e.op(err == nil, "NewPolarStar(11,3): %v", err)
		e.tr.do(parent, "topo.jellyfish_build", 0, func(int) { st.jelly, err = topo.NewJellyfish(sz.jellyN, 16, e.res.Seed) })
		e.op(err == nil, "NewJellyfish(%d,16): %v", sz.jellyN, err)
		var buildMS float64
		for i, name := range sz.fig14Specs {
			buildMS += ms(e.tr.do(parent, "topo.spec_build", i, func(int) {
				spec, err := sim.NewSpec(name)
				e.op(err == nil, "NewSpec(%s): %v", name, err)
				st.fig14 = append(st.fig14, spec)
			}))
		}
		e.set("topo.spec_build_ms", buildMS)
		e.set("topo.specs_built", float64(len(st.fig14)))
	})
	if e.res.Failed > 0 {
		return
	}

	var got graphRef
	var evals4k, runS4k float64    // the 4096-vertex search's evaluations and wall, for search.overhead_frac
	var proposals4k float64        // search proposals of one pass
	var largeStats graph.PathStats // AllPairsStats of the 13 272-router graph
	e.passes(nil, func(parent, pass int) map[string]float64 {
		m := map[string]float64{}
		first := pass == 0
		g := st.large.G

		// A. all-pairs kernels: at n = 4096, where the frontier bitsets stay
		// in cache, and at n = 13 272, where they do not.
		e.timed("call/allpairs_4k", parent, "graph.allpairs_4k", 0, func(int) { st.jelly.AllPairsStats() })
		e.opsOK(1)
		var stats graph.PathStats
		var histo []int64
		e.timed("call/allpairs", parent, "graph.allpairs", 0, func(int) { stats = g.AllPairsStats() })
		hist := ms(e.timed("call/hist", parent, "graph.hist", 0, func(int) { histo = g.DistanceHistogram() }))
		var histPairs int64
		for d, c := range histo {
			if d > 0 {
				histPairs += c
			}
		}
		if first {
			e.op(stats.Connected, "AllPairsStats: PolarStar-IQ(%d,%d) not connected", sz.largeQ, sz.largeD)
			e.op(histPairs == stats.Pairs && len(histo) == int(stats.Diameter)+1, "DistanceHistogram: %d pairs over %d distances, stats say %d pairs, diameter %d",
				histPairs, len(histo)-1, stats.Pairs, stats.Diameter)
			got = graphRef{N: g.N(), Diameter: int(stats.Diameter), ASPL: stats.AvgPath, Fig14: map[string]float64{}}
			largeStats = stats
			e.hashf("%+v %v\n", stats, histo)
		}
		m["graph.hist_ms"] = hist

		// B. routing-state builds on PS-IQ(11,3): the all-minpaths table
		// and the k=3 EDST lanes.
		var table *route.Table
		m["route.table_build_ms"] = ms(e.timed("call/table", parent, "route.table_build", 0, func(int) { table = route.NewTable(st.mid.G, route.AllMinPaths) }))
		m["route.table_mem_mb"] = float64(table.MemBytes()) / (1 << 20)
		m["route.edst_build_ms_1k"] = edstBuild(e, parent, "call/edst_1k", "route.edst_build_1k", st.mid, first)
		e.opsOK(1)

		// C. structural Fig 14 at full scale.
		var trialMS []float64
		fig14Start := time.Now()
		for i, spec := range st.fig14 {
			var tr faults.Trial
			var err error
			d := e.timed("call/fig14/"+spec.Name, parent, "faults.median_trial", i, func(int) {
				tr, err = faults.MedianTrial(spec.Graph, faults.Hosts(spec.Hosts), sz.trials, e.res.Seed, faults.DefaultFracs)
			})
			trialMS = append(trialMS, ms(d))
			if first {
				e.opsBehind(sz.trials, err, "fig14 "+spec.Name)
				got.Fig14[spec.Name] = tr.DisconnectionRatio
				e.hashf("%s %+v\n", spec.Name, tr)
			}
		}
		fig14 := time.Since(fig14Start).Seconds()
		m["faults.median_trial_ms"] = median(trialMS)
		m["faults.trials_per_s"] = float64(sz.trials*len(st.fig14)) / fig14

		// D. annealing search on the 4096-vertex graph.
		ctr, runD := annealing(e, parent, "4k", st.jelly, sz.epochs, sz.iters4k, first, m)
		proposals4k = float64(ctr.Proposed)
		evals4k, runS4k = float64(ctr.Evals), runD.Seconds()
		return m
	})

	// The same search at 13 272 vertices, once a run and outside the pass:
	// building its 176-MB distance matrix and walking it is all memory
	// traffic, which on a shared host reads ±10 % from one quarter of an
	// hour to the next, so it is reported (swaps_per_s_13k) and checked,
	// not part of wall_s.
	e.tr.do(-1, "bench.search_13k", 0, func(parent int) {
		m := map[string]float64{}
		ctr, runD := annealing(e, parent, "13k", st.large.G, sz.epochs, sz.iters13k, true, m)
		e.set("swaps_per_s_13k", float64(ctr.Proposed)/runD.Seconds())
	})

	// End to end: every unit at its best time.
	e.set("wall_s", e.bestSum("call/"))
	e.set("allpairs_ms", e.best["call/allpairs"]*1e3)
	e.set("op_p50_ms", e.best["call/allpairs_4k"]*1e3)
	e.set("fig14_s", e.bestSum("call/fig14/"))
	e.set("swaps_per_s_4k", proposals4k/e.best["call/search.run_4k"])
	e.set("work_per_s", proposals4k/e.best["call/search.run_4k"])

	if e.record {
		e.res.Recorded.Graph = &got
	}
	if ref := e.ref.workload("graph_search"); !e.smoke {
		e.check(ref != nil && ref.Graph != nil, "graph_search: no reference")
		if ref != nil && ref.Graph != nil {
			for _, msg := range checkGraph(got, *ref.Graph) {
				e.check(false, "%s", msg)
			}
		}
	}
	if e.tr != nil {
		e.tr.do(-1, "bench.probe", 0, func(parent int) {
			largeProbes(e, parent, st.large, largeStats)
			deltaProbes(e, parent, st.jelly, sz.walkSwaps, evals4k, runS4k)
		})
	}
}

// annealing builds and runs a two-searcher search on one worker — as
// units of the pass when tag is "4k" — checks it when check is set, and
// puts the 4k search's layer numbers into m.
func annealing(e *env, parent int, tag string, g *graph.Graph, epochs, iters int, check bool, m map[string]float64) (search.Counters, time.Duration) {
	p := search.Params{Seed: e.res.Seed, Searchers: 2, Epochs: epochs, Iters: iters, Workers: 1}
	var eng *search.Engine
	var err error
	var res *search.Result
	do := e.tr.do
	if tag == "4k" {
		do = func(parent int, name string, id int, fn func(int)) time.Duration {
			return e.timed("call/"+name, parent, name, id, fn)
		}
	}
	newD := do(parent, "search.new_"+tag, 0, func(int) { eng, err = search.New(g, p) })
	if err != nil {
		e.op(false, "search.New(%s): %v", tag, err)
		return search.Counters{}, 0
	}
	runD := do(parent, "search.run_"+tag, 0, func(int) { res = eng.Run() })
	ctr := res.Counters
	if tag == "4k" {
		m["search.new_ms"] = ms(newD)
		m["search.accept_frac"] = float64(ctr.Accepted) / float64(max(ctr.Proposed, 1))
		m["search.avg_dirty"] = float64(ctr.DirtyTotal) / float64(max(ctr.Evals, 1))
		m["search.resyncs"] = float64(ctr.Resyncs)
	}
	if check {
		want := int64(2 * epochs * iters)
		e.opsOK(int(want) - 1)
		e.op(ctr.Proposed == want && ctr.Drift == 0 && res.Stats.Connected,
			"search %s: proposed %d of %d, drift %d, connected %v", tag, ctr.Proposed, want, ctr.Drift, res.Stats.Connected)
		e.hashf("%s %d %+v %+v\n", tag, res.BestCost, res.Stats, ctr)
	}
	return ctr, runD
}

// edstBuild times route.NewMultiPath(k=3) on ps — as the pass's unit key
// when key is not empty, else as a probe — and checks it when check is.
func edstBuild(e *env, parent int, key, name string, ps *topo.PolarStar, check bool) float64 {
	var mp *route.MultiPath
	var err error
	build := func(int) { mp, err = route.NewMultiPath(ps.G, route.NewPolarStar(ps), 3, laneHopCap, 1) }
	var d time.Duration
	if key != "" {
		d = e.timed(key, parent, name, 0, build)
	} else {
		d = e.tr.do(parent, name, 0, build)
	}
	if check {
		e.op(err == nil && mp.TreeLanes() == 3, "%s: %v", name, err)
	}
	return ms(d)
}

// largeProbes measures what the pass leaves out at 13 272 routers: the
// EDST lane build, and all-pairs on one worker against all-pairs on
// min(nproc, 4) (the pass runs on one P, so there AllPairsStats is
// serial too); the two must agree with each other and with the pass.
func largeProbes(e *env, parent int, ps *topo.PolarStar, want graph.PathStats) {
	e.set("route.edst_build_ms_13k", edstBuild(e, parent, "", "route.edst_build_13k", ps, true))
	var scratch graph.BitBFSScratch
	var serial, parallel graph.PathStats
	ser := e.tr.do(parent, "graph.allpairs_serial", 0, func(int) { serial = ps.G.AllPairsStatsSerial(&scratch) })
	var par time.Duration
	e.wide(func() {
		par = e.tr.do(parent, "graph.allpairs_wide", 0, func(int) { parallel = ps.G.AllPairsStats() })
	})
	e.op(serial == want && parallel == want, "all-pairs at 13 272: serial %+v, on %d workers %+v, in the pass %+v", serial, e.ncpu, parallel, want)
	e.set("graph.allpairs_serial_ms", ms(ser))
	e.set("graph.allpairs_scaling", ser.Seconds()/par.Seconds())
}

// deltaProbes measures graph.DeltaStats alone, without the search round
// it: a seeded walk of applied 2-opt swaps on the 4096-vertex graph
// (mean Apply, dirty sources, rebuilds), the same walk replayed through
// EvalPools of width 1 and min(nproc, 4), and from those the share of the
// search's wall (evals evaluations in runS seconds) that is not delta
// evaluation.
func deltaProbes(e *env, parent int, g *graph.Graph, swaps int, evals, runS float64) {
	d := graph.NewDeltaStats(g)
	edges := g.Edges()
	rng := rand.New(rand.NewSource(e.res.Seed))
	var seq []graph.Swap
	var applyNS int64
	for attempts := 0; len(seq) < swaps && attempts < 1000*swaps; attempts++ {
		i, j := rng.Intn(len(edges)), rng.Intn(len(edges))
		a, b := int32(edges[i][0]), int32(edges[i][1])
		c2, d2 := int32(edges[j][0]), int32(edges[j][1])
		if rng.Intn(2) == 1 {
			a, b = b, a
		}
		if rng.Intn(2) == 1 {
			c2, d2 = d2, c2
		}
		sw := graph.Swap{A: a, B: b, C: c2, D: d2}
		if !d.CanSwap(sw) {
			continue
		}
		applyNS += e.tr.do(parent, "graph.delta_apply", len(seq), func(int) { d.Apply(sw) }).Nanoseconds()
		seq = append(seq, sw)
		edges[i], edges[j] = [2]int{int(a), int(c2)}, [2]int{int(b), int(d2)}
	}
	e.op(len(seq) == swaps, "delta walk: found %d of %d valid swaps", len(seq), swaps)
	e.op(!d.Resync(), "delta walk: state drifted from full recomputation")
	if len(seq) == 0 {
		return
	}
	applyMS := float64(applyNS) / 1e6 / float64(len(seq))
	e.set("graph.delta_apply_ms_4k", applyMS)
	e.set("graph.delta_dirty_mean_4k", float64(d.DirtyTotal)/float64(d.Evals))
	e.set("graph.delta_full_rebuilds", float64(d.FullRebuilds))

	refSum, refPairs := d.SumPairs()
	replay := func(width int) float64 {
		dp := graph.NewDeltaStatsPool(g, graph.NewEvalPool(width))
		wall := e.tr.do(parent, fmt.Sprintf("graph.delta_replay_w%d", width), width, func(int) {
			for _, sw := range seq {
				dp.Apply(sw)
			}
		})
		sum, pairs := dp.SumPairs()
		e.op(sum == refSum && pairs == refPairs, "delta replay at pool width %d diverged", width)
		return wall.Seconds()
	}
	one := replay(1)
	e.wide(func() { e.set("graph.delta_pool_scaling", one/replay(e.ncpu)) })

	// The search's two searchers share one worker, so the evaluation
	// share of the run's wall is evals × apply.
	if runS > 0 {
		e.set("search.overhead_frac", 1-evals*applyMS/1e3/runS)
	}
}
