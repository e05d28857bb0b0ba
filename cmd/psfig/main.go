// psfig regenerates every figure of the paper in one run, writing text
// tables and SVG charts into a results directory. By default it uses the
// scaled-down configurations (minutes); -full switches to paper scale
// (Table 3 topologies, full load ladders — substantially longer).
//
// Usage:
//
//	psfig -out results
//	psfig -out results -full
//	psfig -out results -only fig9,fig14
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"polarstar/internal/cli"
	"polarstar/internal/faults"
	"polarstar/internal/flowsim"
	"polarstar/internal/moore"
	"polarstar/internal/motifs"
	"polarstar/internal/obs"
	"polarstar/internal/partition"
	"polarstar/internal/plot"
	"polarstar/internal/sim"
)

type ctx struct {
	out         string
	full        bool
	seed        int64
	workers     int
	fig         *obs.Figure // telemetry section of the figure being built (nil: off)
	metInterval int
}

func main() {
	var (
		out  = flag.String("out", "results", "output directory")
		full = flag.Bool("full", false, "paper-scale configurations (slow)")
		only = flag.String("only", "", "comma-separated subset: fig1,fig4,fig7,fig9,fig10,fig11,fig12,fig13,fig14,headline")
		seed = flag.Int64("seed", 1, "seed")
		wrk  = flag.Int("workers", 0, "sim engine shard workers per run (0: auto-split cores; results identical for any value)")
		met  = cli.Register("psfig")
	)
	flag.Parse()
	defer met.Profile()()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		cli.Fatal(err)
	}
	c := ctx{out: *out, full: *full, seed: *seed, workers: *wrk, metInterval: *met.Interval}
	artifact := met.Run(obs.Manifest{Seed: *seed, Workers: *wrk})
	want := map[string]bool{}
	for _, f := range cli.Split(*only) {
		if f != "" {
			want[f] = true
		}
	}
	run := func(name string, fn func(ctx) error) {
		if len(want) > 0 && !want[name] {
			return
		}
		c.fig = nil
		if artifact != nil {
			c.fig = &obs.Figure{Name: name}
			artifact.Figures = append(artifact.Figures, c.fig)
		}
		start := time.Now()
		var err error
		cli.Task(func() { err = fn(c) }, "phase", name)
		if err != nil {
			cli.Fatal(fmt.Errorf("%s failed: %v", name, err))
		}
		fmt.Printf("%-10s done in %.1fs\n", name, time.Since(start).Seconds())
	}
	run("fig1", fig1)
	run("fig4", fig4)
	run("fig7", fig7)
	run("headline", headline)
	run("fig9", fig9)
	run("fig10", fig10)
	run("fig11", fig11)
	run("fig12", fig12)
	run("fig13", fig13)
	run("fig14", fig14)
	met.Finish(artifact, "wrote metrics ")
}

// write writes the result file name in the output directory through fn.
func (c ctx) write(name string, fn func(io.Writer) error) error {
	return cli.WriteFile(filepath.Join(c.out, name), fn)
}

func (c ctx) simSpecs() []string {
	if c.full {
		return []string{"ps-iq", "ps-pal", "bf", "hx", "df", "sf", "mf", "ft"}
	}
	return []string{"ps-iq-small", "ps-pal-small", "bf-small", "hx-small", "df-small", "sf-small", "mf-small", "ft-small"}
}

func (c ctx) simParams() sim.Params {
	p := sim.DefaultParams(c.seed)
	p.Workers = c.workers
	p.MetricsInterval = c.metInterval
	if !c.full {
		p.Warmup, p.Measure, p.Drain = 1000, 2000, 4000
	}
	return p
}

func (c ctx) loads() []float64 {
	if c.full {
		return sim.DefaultLoads
	}
	return []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}
}

func fig1(c ctx) error {
	hi := 64
	if c.full {
		hi = 128
	}
	rows := moore.Fig1(8, hi)
	if err := c.write("fig01_scalability.txt", func(w io.Writer) error { moore.WriteFig1(w, rows); return nil }); err != nil {
		return err
	}

	chart := &plot.Chart{Title: "Fig 1: Moore-bound efficiency of diameter-3 topologies",
		XLabel: "network radix", YLabel: "order / Moore bound"}
	add := func(name string, pick func(moore.Fig1Row) moore.Point) {
		var xs, ys []float64
		for _, r := range rows {
			p := pick(r)
			if p.Valid() {
				xs = append(xs, float64(r.Radix))
				ys = append(ys, float64(p.Order)/float64(r.MooreBound))
			}
		}
		chart.Add(name, xs, ys)
	}
	add("PolarStar", func(r moore.Fig1Row) moore.Point { return r.PolarStar })
	add("StarMax", func(r moore.Fig1Row) moore.Point { return r.StarMax })
	add("Bundlefly", func(r moore.Fig1Row) moore.Point { return r.Bundlefly })
	add("Dragonfly", func(r moore.Fig1Row) moore.Point { return r.Dragonfly })
	add("3D HyperX", func(r moore.Fig1Row) moore.Point { return r.HyperX3D })
	add("Kautz", func(r moore.Fig1Row) moore.Point { return r.Kautz })
	return c.write("fig01_scalability.svg", chart.WriteSVG)
}

func fig4(c ctx) error {
	rows := moore.Fig4(5, 64)
	if err := c.write("fig04_diameter2.txt", func(w io.Writer) error { moore.WriteFig4(w, rows); return nil }); err != nil {
		return err
	}
	chart := &plot.Chart{Title: "Fig 4: diameter-2 families vs Moore bound",
		XLabel: "degree", YLabel: "order / Moore bound"}
	add := func(name string, pick func(moore.Fig4Row) moore.Point) {
		var xs, ys []float64
		for _, r := range rows {
			if p := pick(r); p.Valid() {
				xs = append(xs, float64(r.Radix))
				ys = append(ys, float64(p.Order)/float64(r.MooreBound))
			}
		}
		chart.Add(name, xs, ys)
	}
	add("ER", func(r moore.Fig4Row) moore.Point { return r.ER })
	add("MMS", func(r moore.Fig4Row) moore.Point { return r.MMS })
	add("Paley", func(r moore.Fig4Row) moore.Point { return r.Paley })
	add("Cayley", func(r moore.Fig4Row) moore.Point { return r.Cayley })
	return c.write("fig04_diameter2.svg", chart.WriteSVG)
}

func fig7(c ctx) error {
	hi := 64
	if c.full {
		hi = 128
	}
	if err := c.write("fig07_designspace.txt", func(w io.Writer) error { moore.WriteFig7(w, 8, hi); return nil }); err != nil {
		return err
	}
	chart := &plot.Chart{Title: "Fig 7: feasible PolarStar orders per radix",
		XLabel: "network radix", YLabel: "routers"}
	var xs, ys []float64
	for r := 8; r <= hi; r++ {
		for _, cfg := range moore.PolarStarConfigs(r) {
			xs = append(xs, float64(r))
			ys = append(ys, float64(cfg.Order))
		}
	}
	chart.Add("configurations", xs, ys)
	return c.write("fig07_designspace.svg", chart.WriteSVG)
}

func headline(c ctx) error {
	h := moore.Headline(8, 128)
	return c.write("headline_ratios.txt", func(w io.Writer) error {
		fmt.Fprintf(w, "PolarStar vs Bundlefly:  %.3fx (paper 1.3x)\n", h.VsBundlefly)
		fmt.Fprintf(w, "PolarStar vs Dragonfly:  %.3fx (paper 1.9x)\n", h.VsDragonfly)
		fmt.Fprintf(w, "PolarStar vs 3-D HyperX: %.3fx (paper 6.7x)\n", h.VsHyperX)
		return nil
	})
}

// simPanel runs one (routing, pattern) panel across all topologies and
// writes a combined text table and latency-load SVG.
func simPanel(c ctx, fileStem string, mode sim.RoutingMode, pattern string) error {
	chart := &plot.Chart{Title: fmt.Sprintf("%s, %s routing", pattern, mode),
		XLabel: "offered load", YLabel: "avg latency (cycles)"}
	if err := c.write(fileStem+".txt", func(w io.Writer) error {
		for _, name := range c.simSpecs() {
			spec, err := sim.NewSpec(name)
			if err != nil {
				return err
			}
			var sm *obs.SimSweep
			if c.fig != nil {
				sm = obs.NewSimSweep(name, mode.String(), pattern, len(c.loads()))
				c.fig.Sims = append(c.fig.Sims, sm)
			}
			res, err := sim.SweepObs(spec, mode, pattern, c.loads(), c.simParams(), sm)
			if err != nil {
				return err
			}
			sim.WriteSweep(w, res)
			fmt.Fprintln(w)
			var xs, ys []float64
			for _, p := range res.Points {
				if p.Saturated {
					break
				}
				xs = append(xs, p.Load)
				ys = append(ys, p.AvgLatency)
			}
			chart.Add(name, xs, ys)
		}
		return nil
	}); err != nil {
		return err
	}
	return c.write(fileStem+".svg", chart.WriteSVG)
}

func fig9(c ctx) error {
	panels := []struct {
		stem    string
		mode    sim.RoutingMode
		pattern string
	}{
		{"fig09a_uniform_min", sim.MIN, "uniform"},
		{"fig09c_uniform_ugal", sim.UGALMode, "uniform"},
		{"fig09d_permutation", sim.UGALMode, "permutation"},
		{"fig09e_bitreverse", sim.UGALMode, "bitreverse"},
		{"fig09f_bitshuffle", sim.UGALMode, "bitshuffle"},
	}
	for _, p := range panels {
		if err := simPanel(c, p.stem, p.mode, p.pattern); err != nil {
			return err
		}
	}
	return nil
}

func fig10(c ctx) error {
	if err := simPanel(c, "fig10a_adversarial_min", sim.MIN, "adversarial"); err != nil {
		return err
	}
	return simPanel(c, "fig10b_adversarial_ugal", sim.UGALMode, "adversarial")
}

func fig11(c ctx) error {
	ranks := 256
	if c.full {
		ranks = 4096
	}
	specs := []string{"ps-iq", "df", "hx", "ft"}
	if !c.full {
		specs = []string{"ps-iq-small", "df-small", "hx-small", "ft-small"}
	}
	return c.write("fig11_motifs.txt", func(w io.Writer) error {
		fmt.Fprintf(w, "%-12s %-14s %-14s %-14s %-14s\n", "topology",
			"allreduce-MIN", "allreduce-UGAL", "sweep3d-MIN", "sweep3d-UGAL")
		for _, name := range specs {
			spec, err := sim.NewSpec(name)
			if err != nil {
				return err
			}
			r := ranks
			if r > spec.Endpoints() {
				r = spec.Endpoints()
			}
			side := 16
			for side*side > spec.Endpoints() {
				side /= 2
			}
			row := []float64{}
			for _, motif := range []string{"allreduce", "sweep3d"} {
				for _, adaptive := range []bool{false, true} {
					p := flowsim.DefaultParams(c.seed)
					p.Adaptive = adaptive
					net := flowsim.New(spec.MinEngine, spec.Config(), spec.Graph, spec.UGALMids, p)
					var t float64
					if motif == "allreduce" {
						t = motifs.Allreduce(net, r, 64*1024, 10)
					} else {
						t = motifs.Sweep3D(net, side, side, 4096, 100, 10)
					}
					row = append(row, t/1000)
				}
			}
			fmt.Fprintf(w, "%-12s %-14.1f %-14.1f %-14.1f %-14.1f\n", name, row[0], row[1], row[2], row[3])
		}
		return nil
	})
}

func fig12(c ctx) error {
	return c.write("fig12_bisection.txt", func(w io.Writer) error {
		fmt.Fprintf(w, "%-14s %-8s %-8s %-10s\n", "topology", "n", "m", "cutfrac")
		for _, name := range c.simSpecs() {
			spec, err := sim.NewSpec(name)
			if err != nil {
				return err
			}
			frac := partition.CutFraction(spec.Graph, c.seed, partition.Options{})
			fmt.Fprintf(w, "%-14s %-8d %-8d %-10.3f\n", name, spec.Graph.N(), spec.Graph.M(), frac)
		}
		return nil
	})
}

func fig13(c ctx) error {
	hi, maxN := 16, 2500
	if c.full {
		hi, maxN = 24, 40000
	}
	return c.write("fig13_bisection_polarstar.txt", func(w io.Writer) error { moore.WriteFig13(w, 8, hi, maxN, c.seed); return nil })
}

func fig14(c ctx) error {
	trials := 10
	if c.full {
		trials = 100
	}
	chart := &plot.Chart{Title: "Fig 14: avg path length under link failures",
		XLabel: "fraction of failed links", YLabel: "avg shortest path (hops)"}
	if err := c.write("fig14_faults.txt", func(w io.Writer) error {
		for _, name := range c.simSpecs() {
			spec, err := sim.NewSpec(name)
			if err != nil {
				return err
			}
			var fm *obs.FaultSweep
			if c.fig != nil {
				fm = &obs.FaultSweep{Spec: name}
				c.fig.Faults = append(c.fig.Faults, fm)
			}
			tr, err := faults.MedianTrialObs(spec.Graph, faults.Hosts(spec.Hosts), trials, c.seed, faults.DefaultFracs, fm)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "# %s disconnection ratio %.3f\n", name, tr.DisconnectionRatio)
			var xs, ys []float64
			for _, p := range tr.Curve {
				if !p.Connected {
					break
				}
				fmt.Fprintf(w, "%s %.2f diam=%d apl=%.3f\n", name, p.FailFrac, p.Diameter, p.AvgPath)
				xs = append(xs, p.FailFrac)
				ys = append(ys, p.AvgPath)
			}
			chart.Add(name, xs, ys)
			fmt.Fprintln(w)
		}
		return nil
	}); err != nil {
		return err
	}
	return c.write("fig14_faults.svg", chart.WriteSVG)
}
