// psbisect reproduces the bisection study of §11.1 (Figs 12 and 13): the
// estimated fraction of links crossing the minimum bisection for the
// largest feasible construction of each topology per radix.
//
// Usage:
//
//	psbisect -lo 8 -hi 24            # Fig 12 sweep (explicit graphs)
//	psbisect -fig 13 -lo 8 -hi 24    # PolarStar IQ vs Paley
//	psbisect -spec ps-iq             # one Table 3 configuration
package main

import (
	"flag"
	"fmt"
	"os"

	"polarstar/internal/cli"
	"polarstar/internal/graph"
	"polarstar/internal/moore"
	"polarstar/internal/partition"
	"polarstar/internal/sim"
	"polarstar/internal/topo"
)

func main() {
	var (
		lo       = flag.Int("lo", 8, "lowest radix")
		hi       = flag.Int("hi", 24, "highest radix")
		fig      = flag.Int("fig", 12, "12 (cross-topology) or 13 (PolarStar IQ vs Paley)")
		specName = flag.String("spec", "", "bisect a single Table 3 spec instead of sweeping")
		seed     = flag.Int64("seed", 1, "partitioner seed")
		maxN     = flag.Int("maxn", 40000, "skip graphs larger than this")
	)
	flag.Parse()

	if *specName != "" {
		spec, err := sim.NewSpec(*specName)
		if err != nil {
			cli.Fatal(err)
		}
		f := partition.CutFraction(spec.Graph, *seed, partition.Options{})
		fmt.Printf("%s: n=%d m=%d bisection fraction %.3f\n", spec.Name, spec.Graph.N(), spec.Graph.M(), f)
		return
	}

	switch *fig {
	case 12:
		fmt.Printf("%-6s %-10s %-10s %-10s %-10s %-10s\n", "radix", "polarstar", "bundlefly", "dragonfly", "hyperx", "jellyfish")
		for r := *lo; r <= *hi; r++ {
			fmt.Printf("%-6d %-10s %-10s %-10s %-10s %-10s\n", r,
				moore.CutCell(moore.LargestPolarStarGraph(r, *maxN), *seed),
				moore.CutCell(pointGraph(moore.BestBundlefly(r), *maxN), *seed),
				moore.CutCell(pointGraph(moore.BestDragonfly(r), *maxN), *seed),
				moore.CutCell(pointGraph(moore.BestHyperX3D(r), *maxN), *seed),
				moore.CutCell(jellyfishLike(r, *maxN, *seed), *seed))
		}
	case 13:
		moore.WriteFig13(os.Stdout, *lo, *hi, *maxN, *seed)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// pointGraph builds the design point's topology; nil when the point is
// infeasible, larger than maxN or fails to build.
func pointGraph(p moore.Point, maxN int) *graph.Graph {
	if !p.Valid() || int(p.Order) > maxN {
		return nil
	}
	g, _ := p.Graph()
	return g
}

// jellyfishLike builds a random regular graph with the same radix and
// scale as the best PolarStar (the Fig 12 protocol); nil, printed "-",
// when that scale exceeds maxN or the construction fails.
func jellyfishLike(radix, maxN int, seed int64) *graph.Graph {
	best := moore.BestPolarStar(radix)
	if !best.Valid() || int(best.Order) > maxN {
		return nil
	}
	n := int(best.Order)
	if n*radix%2 != 0 {
		n++
	}
	g, _ := topo.NewJellyfish(n, radix, seed)
	return g
}
