// psfaults reproduces the fault-tolerance experiment of §11.2 (Fig 14):
// network diameter and average shortest-path length under random link
// failures, reported for the median-disconnection-ratio trial. With
// -traffic it additionally runs the cycle-level simulator on each
// degraded topology, reporting delivered fraction and latency at a fixed
// offered load.
//
// Usage:
//
//	psfaults -spec ps-iq -trials 100
//	psfaults -spec df -trials 20
//	psfaults -spec ps-iq-small -traffic -load 0.3 -mode ugal
//
// With -resilience it instead scripts live link failures *during* each
// run and compares routing modes' sustained throughput as the failure
// count grows (multipath lanes vs MIN vs UGAL):
//
//	psfaults -spec ps-iq-43 -resilience -counts 0,2,4,8 -rmodes min,mp-min
package main

import (
	"flag"
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"polarstar/internal/cli"
	"polarstar/internal/faults"
	"polarstar/internal/obs"
	"polarstar/internal/plot"
	"polarstar/internal/sim"
)

func main() {
	var (
		specName = flag.String("spec", "ps-iq", "topology spec (see pssim)")
		trials   = flag.Int("trials", 100, "random failure scenarios (paper: 100)")
		seed     = flag.Int64("seed", 1, "seed")
		svgOut   = flag.String("svg", "", "also write the APL-vs-failures curve as an SVG file")
		traffic  = flag.Bool("traffic", false, "simulate traffic on each degraded topology instead of structural stats")
		load     = flag.Float64("load", 0.3, "offered load for -traffic (flits/endpoint/cycle)")
		mode     = flag.String("mode", "min", "routing for -traffic: "+strings.Join(sim.RoutingModeNames(), "|")+" (README \"Routing modes\")")
		pattern  = flag.String("pattern", "uniform", "traffic pattern for -traffic")
		workers  = flag.Int("workers", 0, "engine shard workers per -traffic run (0: one per core)")

		resilience = flag.Bool("resilience", false, "compare routing modes under scripted live link failures (throughput vs failure count)")
		counts     = flag.String("counts", "0,1,2,4,6,8", "failure counts for -resilience (comma-separated links killed)")
		rmodes     = flag.String("rmodes", "min,ugal,mp-min", "routing curves for -resilience: comma-separated -mode names")
		lanes      = flag.Int("lanes", 0, "spanning-tree lanes of the mp-* modes (0: default 3)")
		rMTBF      = flag.Int64("resilience-mtbf", 0, "spread -resilience failures this many cycles apart (0: one batch)")
		rRepair    = flag.Int64("resilience-repair", 0, "repair each -resilience failure after this many cycles (0: permanent)")
		rTarget    = flag.Int("target-lanes", 0, "draw -resilience failures from the tree edges of the first N multipath lanes (0: uniform over all links)")

		live = sim.Flags() // plan and -mtbf apply to -traffic runs, the retry flags and -repair-delay to -resilience too
		met  = cli.Register("psfaults")
	)
	flag.Parse()
	defer met.Profile()()

	spec, err := sim.NewSpec(*specName)
	if err != nil {
		cli.Fatal(err)
	}
	params := sim.DefaultParams(*seed)
	params.MetricsInterval = *met.Interval
	params.Workers = *workers
	params.Lanes = *lanes
	if *resilience {
		if err := live.Scripted(&params); err != nil {
			cli.Fatal(err)
		}
		cfg := faults.ResilienceConfig{Pattern: *pattern, Load: *load, MTBF: *rMTBF,
			Repair: *rRepair, RepairDelay: params.RepairDelay, Seed: *seed, TargetLanes: *rTarget}
		runResilience(spec, cfg, *counts, *rmodes, params, met)
		return
	}
	if !*traffic && live.Active() {
		cli.Fatal(fmt.Errorf("-fault-plan/-mtbf inject live faults into the simulator; combine them with -traffic"))
	}
	if err := live.Apply(&params, spec.Graph); err != nil {
		cli.Fatal(err)
	}
	if *traffic {
		m, err := sim.ParseRoutingMode(*mode)
		if err != nil {
			cli.Fatal(err)
		}
		runTraffic(spec, m, *pattern, *load, params, live, met)
		return
	}
	run := met.Run(obs.Manifest{Spec: spec.Name, Seed: *seed})
	var fm *obs.FaultSweep
	if run != nil {
		fm = &obs.FaultSweep{Spec: spec.Name}
		run.Faults = fm
	}
	var tr faults.Trial
	cli.Task(func() {
		// Indirect topologies count endpoint routers only (nil Hosts: all).
		tr, err = faults.MedianTrialObs(spec.Graph, spec.Hosts, *trials, *seed, faults.DefaultFracs, fm)
	}, "phase", "faults", "spec", spec.Name)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("# %s: %d routers, %d links; median disconnection ratio %.3f (%d trials)\n",
		spec.Name, spec.Graph.N(), spec.Graph.M(), tr.DisconnectionRatio, *trials)
	fmt.Printf("%-10s %-10s %-10s %-10s\n", "failfrac", "diameter", "avgpath", "connected")
	for _, p := range tr.Curve {
		if p.Connected {
			fmt.Printf("%-10.2f %-10d %-10.3f %-10v\n", p.FailFrac, p.Diameter, p.AvgPath, p.Connected)
		} else {
			fmt.Printf("%-10.2f %-10s %-10s %-10v\n", p.FailFrac, "-", "-", p.Connected)
		}
	}

	if *svgOut != "" {
		chart := &plot.Chart{
			Title:  fmt.Sprintf("%s under random link failures", spec.Name),
			XLabel: "fraction of failed links",
			YLabel: "hops",
		}
		var xs, apl, diam []float64
		for _, p := range tr.Curve {
			if !p.Connected {
				break
			}
			xs = append(xs, p.FailFrac)
			apl = append(apl, p.AvgPath)
			diam = append(diam, float64(p.Diameter))
		}
		chart.Add("avg path length", xs, apl)
		chart.Add("diameter", xs, diam)
		if err := cli.WriteFile(*svgOut, chart.WriteSVG); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("# wrote %s\n", *svgOut)
	}
	met.Finish(run, "# wrote metrics ")
}

// simManifest is the manifest of a simulator-backed mode. It records the
// worker count the engine resolves -workers 0 to.
func simManifest(spec *sim.Spec, routing, pattern string, params sim.Params) obs.Manifest {
	m := obs.Manifest{Spec: spec.Name, Routing: routing, Pattern: pattern, Seed: params.Seed, Workers: params.Workers}
	if m.Workers <= 0 {
		m.Workers = runtime.GOMAXPROCS(0)
	}
	return m
}

func runResilience(spec *sim.Spec, cfg faults.ResilienceConfig, counts, rmodes string, params sim.Params, met *cli.Flags) {
	var err error
	if cfg.Counts, err = cli.List(counts, strconv.Atoi); err != nil {
		cli.Fatal(fmt.Errorf("-counts: %w", err))
	}
	if cfg.Modes, err = cli.List(rmodes, sim.ParseRoutingMode); err != nil {
		cli.Fatal(fmt.Errorf("-rmodes: %w", err))
	}

	run := met.Run(simManifest(spec, "", cfg.Pattern, params))
	var fr *obs.FaultResilience
	if run != nil {
		fr = &obs.FaultResilience{}
		run.FaultResilience = fr
	}
	var curves []faults.ResilienceCurve
	cli.Task(func() {
		curves, err = faults.ResilienceSweepObs(spec, cfg, params, fr)
	}, "phase", "fault-resilience", "spec", spec.Name)
	if err != nil {
		cli.Fatal(err)
	}
	target := ""
	if cfg.TargetLanes > 0 {
		target = fmt.Sprintf(" target-lanes=%d", cfg.TargetLanes)
	}
	if cfg.RepairDelay > 0 {
		target += fmt.Sprintf(" repair-delay=%d", cfg.RepairDelay)
	}
	fmt.Printf("# %s %s resilience at load %.2f (kill@%d mtbf=%d repair=%d%s)\n",
		spec.Name, cfg.Pattern, cfg.Load, params.Warmup, cfg.MTBF, cfg.Repair, target)
	fmt.Printf("%-9s %-9s %-12s %-12s %-10s %-8s %-8s\n",
		"routing", "failures", "throughput", "avg-lat", "delivered", "lost", "retried")
	for _, c := range curves {
		name := c.Mode.String()
		if c.Lanes > 0 {
			name = fmt.Sprintf("%s(%d)", name, c.Lanes)
		}
		for _, p := range c.Points {
			fmt.Printf("%-9s %-9d %-12.4f %-12.2f %-10.3f %-8d %-8d\n",
				name, p.Failures, p.Throughput, p.AvgLatency, p.DeliveredFrac, p.Lost, p.Retried)
		}
	}
	met.Finish(run, "# wrote metrics ")
}

func runTraffic(spec *sim.Spec, mode sim.RoutingMode, pattern string, load float64, params sim.Params, live *sim.FaultFlags, met *cli.Flags) {
	m := simManifest(spec, mode.String(), pattern, params)
	m.FaultPlan = live.Manifest(params)
	run := met.Run(m)
	var ft *obs.FaultTraffic
	if run != nil {
		ft = &obs.FaultTraffic{}
		run.FaultTraffic = ft
	}
	var pts []faults.TrafficPoint
	var err error
	cli.Task(func() {
		pts, err = faults.TrafficSweep(spec, mode, pattern, load, faults.DefaultFracs, params, params.Seed, ft)
	}, "phase", "fault-traffic", "spec", spec.Name)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("# %s %s %s under random link failures at load %.2f\n", spec.Name, mode, pattern, load)
	fmt.Printf("%-10s %-8s %-12s %-10s %-10s\n", "failfrac", "removed", "avg-lat", "delivered", "saturated")
	for _, p := range pts {
		fmt.Printf("%-10.2f %-8d %-12.2f %-10.3f %-10v\n", p.FailFrac, p.Removed, p.AvgLatency, p.DeliveredFrac, p.Saturated)
	}
	met.Finish(run, "# wrote metrics ")
}
