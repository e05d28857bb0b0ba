// psroute queries routing on a topology spec: minimal paths (with the
// storage-light analytic router where available), Valiant candidates,
// edge-disjoint path counts, and routing-state accounting.
//
// Usage:
//
//	psroute -spec ps-iq -src 0 -dst 999
//	psroute -spec ps-iq -storage
//	psroute -spec df -src 3 -dst 700 -disjoint
package main

import (
	"flag"
	"fmt"
	"math/rand"

	"polarstar/internal/cli"
	"polarstar/internal/route"
	"polarstar/internal/sim"
)

func main() {
	var (
		specName = flag.String("spec", "ps-iq", "topology spec (see pssim)")
		src      = flag.Int("src", 0, "source router")
		dst      = flag.Int("dst", 1, "destination router")
		disjoint = flag.Bool("disjoint", false, "print edge-disjoint paths")
		storage  = flag.Bool("storage", false, "print routing-state accounting (PolarStar specs)")
		valiant  = flag.Bool("valiant", false, "print Valiant candidate paths")
		seed     = flag.Int64("seed", 1, "seed for path sampling")
	)
	flag.Parse()

	spec, err := sim.NewSpec(*specName)
	if err != nil {
		cli.Fatal(err)
	}
	if *src < 0 || *src >= spec.Graph.N() || *dst < 0 || *dst >= spec.Graph.N() {
		cli.Fatal(fmt.Errorf("router ids must be in [0,%d)", spec.Graph.N()))
	}
	rng := rand.New(rand.NewSource(*seed))

	if *storage {
		psRouter, ok := spec.MinEngine.(*route.PolarStar)
		if !ok {
			fmt.Println("spec does not use the analytic router; table accounting only")
			tab := route.NewTable(spec.Graph, route.AllMinPaths)
			fmt.Printf("distance-table floor: %d bytes total (%d per router)\n",
				tab.StateBytes(), spec.Graph.N())
			fmt.Printf("all-minpath entries:  %d total\n", tab.NextHopEntries())
			return
		}
		tab := route.NewTable(spec.Graph, route.AllMinPaths)
		cmp := route.CompareState(psRouter, tab)
		fmt.Printf("routers:                         %d\n", cmp.Routers)
		fmt.Printf("analytic state per router:       %d bytes\n", cmp.AnalyticPerRouter)
		fmt.Printf("distance-table floor per router: %d bytes\n", cmp.TablePerRouter)
		fmt.Printf("all-minpath entries per router:  %d\n", cmp.AllMinpathPerRouter)
		return
	}

	path := route.Path(spec.MinEngine, *src, *dst, rng)
	fmt.Printf("minpath %d -> %d (%d hops): %v\n", *src, *dst, len(path)-1, path)

	if *valiant {
		v := route.NewValiant(spec.MinEngine, spec.Graph.N(), 4)
		for i, cand := range v.Candidates(*src, *dst, rng) {
			kind := "valiant"
			if i == 0 {
				kind = "minimal"
			}
			fmt.Printf("candidate %d (%s, %d hops): %v\n", i, kind, len(cand)-1, cand)
		}
	}
	if *disjoint {
		paths := route.EdgeDisjointPaths(spec.Graph, *src, *dst, 0)
		fmt.Printf("edge-disjoint paths: %d\n", len(paths))
		for i, p := range paths {
			fmt.Printf("  %2d: %v\n", i, p)
		}
	}
}
