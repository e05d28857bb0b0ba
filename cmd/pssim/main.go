// pssim runs the synthetic-traffic latency-load experiments of §9
// (Figs 9 and 10) on the cycle-level simulator.
//
// Usage:
//
//	pssim -spec ps-iq -routing min -pattern uniform
//	pssim -spec df -routing ugal -pattern adversarial -loads 0.05,0.1,0.2
//	pssim -spec bf-small -cycles 4000
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"polarstar/internal/cli"
	"polarstar/internal/obs"
	"polarstar/internal/plot"
	"polarstar/internal/sim"
)

func main() {
	var (
		specName = flag.String("spec", "ps-iq", "topology spec: "+strings.Join(sim.Table3Names, "|")+" (+\"-small\")")
		routing  = flag.String("routing", "min", strings.Join(sim.RoutingModeNames(), "|")+" (README \"Routing modes\")")
		lanes    = flag.Int("lanes", 0, "spanning-tree lanes of the mp-* modes (0: engine default)")
		pattern  = flag.String("pattern", "uniform", "uniform|permutation|bitshuffle|bitreverse|adversarial")
		loadsArg = flag.String("loads", "", "comma-separated offered loads (default standard ladder)")
		cycles   = flag.Int("cycles", 0, "override measurement cycles (warmup=cycles/2, drain=3*cycles/2)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		svgOut   = flag.String("svg", "", "also write the latency-load curve as an SVG file")
		workers  = flag.Int("workers", 0, "engine shard workers per run (0: auto-split cores between load points and shards; results are identical for any value)")

		repairDelay = flag.Int64("repair-delay", 0, "table-reconvergence stall in cycles after each applied fault event (0: instant repair)")
		live        = sim.Flags()
		met         = cli.Register("pssim")
	)
	flag.Parse()
	defer met.Profile()()

	spec, err := sim.NewSpec(*specName)
	if err != nil {
		cli.Fatal(err)
	}
	mode, err := sim.ParseRoutingMode(*routing)
	if err != nil {
		cli.Fatal(err)
	}
	loads := sim.DefaultLoads
	if *loadsArg != "" {
		loads, err = cli.List(*loadsArg, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
		if err != nil {
			cli.Fatal(fmt.Errorf("bad -loads: %v", err))
		}
	}
	params := sim.DefaultParams(*seed)
	params.Workers = *workers
	params.Lanes = *lanes
	params.MetricsInterval = *met.Interval
	params.RepairDelay = *repairDelay
	params.SetCycles(*cycles)
	if err := live.Apply(&params, spec.Graph); err != nil {
		cli.Fatal(err)
	}
	run := met.Run(obs.Manifest{Spec: spec.Name, Routing: mode.String(), Pattern: *pattern,
		Seed: *seed, Workers: *workers, FaultPlan: live.Manifest(params)})
	var sm *obs.SimSweep
	if run != nil {
		sm = obs.NewSimSweep(spec.Name, mode.String(), *pattern, len(loads))
		run.Sim = sm
	}
	fmt.Printf("# %s: %d routers, %d endpoints\n", spec.Name, spec.Graph.N(), spec.Endpoints())
	var res sim.SweepResult
	cli.Task(func() {
		res, err = sim.SweepObs(spec, mode, *pattern, loads, params, sm)
	}, "phase", "sweep", "spec", spec.Name)
	if err != nil {
		cli.Fatal(err)
	}
	sim.WriteSweep(os.Stdout, res)
	fmt.Printf("# saturation load: %.3f\n", res.SaturationLoad())
	met.Finish(run, "# wrote metrics ")

	if *svgOut != "" {
		chart := &plot.Chart{
			Title:  fmt.Sprintf("%s %s %s", spec.Name, res.Routing, res.Pattern),
			XLabel: "offered load (fraction of injection bandwidth)",
			YLabel: "average packet latency (cycles)",
		}
		var xs, ys []float64
		for _, p := range res.Points {
			if p.Saturated {
				break // the latency-load curve ends at saturation
			}
			xs = append(xs, p.Load)
			ys = append(ys, p.AvgLatency)
		}
		chart.Add(spec.Name, xs, ys)
		if err := cli.WriteFile(*svgOut, chart.WriteSVG); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("# wrote %s\n", *svgOut)
	}
}
