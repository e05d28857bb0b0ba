// psscale reproduces the scale analysis of the paper: Fig 1 (diameter-3
// scalability), Fig 4 (diameter-2 families), Fig 7 (PolarStar design
// space), Table 1 (qualitative properties) and the §1.3 headline
// geometric-mean ratios.
//
// Usage:
//
//	psscale -fig 1 -lo 8 -hi 64
//	psscale -fig 4
//	psscale -fig 7 -lo 8 -hi 32
//	psscale -fig 7 -measure -lo 8 -hi 24 -maxorder 20000
//	psscale -table 1
//	psscale -headline
//
// With -measure, fig 7 constructs every feasible configuration up to
// -maxorder routers and verifies its exact diameter and mean path length
// with the bit-parallel all-pairs BFS engine.
package main

import (
	"flag"
	"fmt"
	"os"

	"polarstar/internal/moore"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure to reproduce: 1, 4 or 7")
		table    = flag.Int("table", 0, "table to print: 1")
		headline = flag.Bool("headline", false, "print §1.3 geomean scale ratios")
		lo       = flag.Int("lo", 8, "lowest radix")
		hi       = flag.Int("hi", 64, "highest radix")
		withSF   = flag.Bool("sf", false, "include Spectralfly diameter-3 design points in fig 1 (slow: explicit LPS construction)")
		measure  = flag.Bool("measure", false, "fig 7: construct each configuration and measure exact diameter/APL")
		maxOrder = flag.Int("maxorder", 20000, "order cap for -measure construction")
	)
	flag.Parse()

	switch {
	case *fig == 1:
		if *withSF {
			moore.WriteFig1(os.Stdout, moore.Fig1WithSpectralfly(*lo, *hi))
			break
		}
		moore.WriteFig1(os.Stdout, moore.Fig1(*lo, *hi))
	case *fig == 4:
		moore.WriteFig4(os.Stdout, moore.Fig4(*lo, *hi))
	case *fig == 7:
		if *measure {
			moore.WriteFig7Measured(os.Stdout, *lo, *hi, *maxOrder)
			break
		}
		moore.WriteFig7(os.Stdout, *lo, *hi)
	case *table == 1:
		fmt.Print(moore.Table1)
	case *headline:
		h := moore.Headline(*lo, *hi)
		fmt.Printf("Geometric-mean scale of PolarStar over baselines, radix %d..%d:\n", *lo, *hi)
		fmt.Printf("  vs Bundlefly:  %.2fx (paper: 1.3x)\n", h.VsBundlefly)
		fmt.Printf("  vs Dragonfly:  %.2fx (paper: 1.9x)\n", h.VsDragonfly)
		fmt.Printf("  vs 3-D HyperX: %.2fx (paper: 6.7x)\n", h.VsHyperX)
	default:
		flag.Usage()
		os.Exit(2)
	}
}
