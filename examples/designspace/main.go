// Designspace: explore the PolarStar design space the way a system
// architect would — enumerate every feasible configuration for a switch
// radix, compare against the baselines' largest designs, and reproduce
// the paper's headline geometric-mean scale ratios.
package main

import (
	"fmt"

	"polarstar"
)

func main() {
	const radix = 32

	fmt.Printf("All feasible PolarStar configurations at radix %d:\n", radix)
	for _, c := range polarstar.PolarStarConfigs(radix) {
		fmt.Printf("  %v\n", c)
	}

	fmt.Printf("\nLargest diameter-3 designs at radix %d:\n", radix)
	for _, p := range []struct {
		name  string
		point polarstar.DesignPoint
	}{
		{"PolarStar", polarstar.BestPolarStar(radix)},
		{"Bundlefly", polarstar.BestBundlefly(radix)},
		{"Dragonfly", polarstar.BestDragonfly(radix)},
		{"3-D HyperX", polarstar.BestHyperX3D(radix)},
	} {
		moore := polarstar.MooreBound(radix, 3)
		fmt.Printf("  %-11s %7d routers (%s), %.1f%% of the Moore bound %d\n",
			p.name, p.point.Order, p.point.Config(),
			100*float64(p.point.Order)/float64(moore), moore)
	}

	fmt.Println("\nGeometric-mean scale ratios over radix 8..128 (§1.3):")
	h := polarstar.Headline(8, 128)
	fmt.Printf("  PolarStar / Bundlefly:  %.2fx (paper: 1.3x)\n", h.VsBundlefly)
	fmt.Printf("  PolarStar / Dragonfly:  %.2fx (paper: 1.9x)\n", h.VsDragonfly)
	fmt.Printf("  PolarStar / 3-D HyperX: %.2fx (paper: 6.7x)\n", h.VsHyperX)

	// Build and sanity-check the largest radix-32 PolarStar.
	best := polarstar.PolarStarConfigs(radix)[0]
	ps := polarstar.MustNew(best.Q, best.DPrime, best.Kind)
	fmt.Printf("\nBuilt %v: diameter %d\n", ps.G, ps.G.Diameter())
}
