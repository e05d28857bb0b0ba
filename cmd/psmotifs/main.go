// psmotifs reproduces the real-world motif evaluation of §10 (Fig 11):
// Allreduce and Sweep3D completion times under MIN and adaptive (UGAL)
// routing on the flow-level simulator.
//
// Usage:
//
//	psmotifs -motif allreduce -specs ps-iq,df,hx,ft
//	psmotifs -motif sweep3d -ranks 1024
package main

import (
	"flag"
	"fmt"
	"math"

	"polarstar/internal/cli"
	"polarstar/internal/flowsim"
	"polarstar/internal/motifs"
	"polarstar/internal/obs"
	"polarstar/internal/sim"
)

func main() {
	var (
		motif    = flag.String("motif", "allreduce", "allreduce|sweep3d")
		specsArg = flag.String("specs", "ps-iq,df,hx,ft", "comma-separated topology specs")
		ranks    = flag.Int("ranks", 4096, "participating ranks (allreduce rounds down to 2^k; sweep3d uses a near-square grid)")
		msgKB    = flag.Float64("msgkb", 64, "message size in KB (paper: 64 for allreduce)")
		iters    = flag.Int("iters", 10, "iterations (paper: 10)")
		compute  = flag.Float64("compute", 100, "sweep3d per-cell compute time (ns)")
		seed     = flag.Int64("seed", 1, "seed")
		met      = cli.Register("psmotifs")
	)
	flag.Parse()
	switch {
	case *ranks < 2:
		cli.Fatal(fmt.Errorf("-ranks must be at least 2, got %d", *ranks))
	case *iters < 1:
		cli.Fatal(fmt.Errorf("-iters must be at least 1, got %d", *iters))
	case !(*msgKB > 0) || math.IsInf(*msgKB, 1):
		cli.Fatal(fmt.Errorf("-msgkb must be finite and > 0, got %g", *msgKB))
	case !(*compute >= 0) || math.IsInf(*compute, 1):
		cli.Fatal(fmt.Errorf("-compute must be finite and >= 0, got %g", *compute))
	}
	defer met.Profile()()

	artifact := met.Run(obs.Manifest{Seed: *seed})
	fmt.Printf("%-10s %-14s %-14s %-8s\n", "topology", "MIN (us)", "UGAL (us)", "speedup")
	for _, name := range cli.Split(*specsArg) {
		spec, err := sim.NewSpec(name)
		if err != nil {
			cli.Fatal(err)
		}
		run := func(adaptive bool) float64 {
			p := flowsim.DefaultParams(*seed)
			p.Adaptive = adaptive
			net := flowsim.New(spec.MinEngine, spec.Config(), spec.Graph, spec.UGALMids, p)
			var fr *obs.FlowRun
			if artifact != nil {
				routing := "MIN"
				if adaptive {
					routing = "UGAL"
				}
				fr = &obs.FlowRun{Topology: name, Motif: *motif, Routing: routing}
				artifact.Flows = append(artifact.Flows, fr)
				net.Observe(fr)
			}
			r := *ranks
			if r > spec.Endpoints() {
				r = spec.Endpoints()
			}
			var t float64
			cli.Task(func() {
				switch *motif {
				case "allreduce":
					t = motifs.Allreduce(net, r, *msgKB*1024, *iters)
				case "sweep3d":
					side := int(math.Sqrt(float64(r)))
					t = motifs.Sweep3D(net, side, side, *msgKB*1024, *compute, *iters)
				default:
					cli.Fatal(fmt.Errorf("unknown motif %q", *motif))
				}
			}, "phase", *motif, "spec", name)
			if fr != nil {
				fr.CompletionUS = t / 1000
			}
			return t
		}
		min := run(false)
		ugal := run(true)
		fmt.Printf("%-10s %-14.1f %-14.1f %-8.2f\n", name, min/1000, ugal/1000, min/ugal)
	}
	met.Finish(artifact, "# wrote metrics ")
}
