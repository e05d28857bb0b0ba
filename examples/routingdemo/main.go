// Routingdemo: the §9.2 storage argument, quantified. PolarStar's
// analytic router computes exact minimal paths from factor-graph state
// that does not grow with the network, while table-based all-minpath
// routing (what Spectralfly and Bundlefly need for competitive
// performance) stores per-destination next-hop sets at every router.
package main

import (
	"fmt"
	"log"

	"polarstar"
	"polarstar/internal/route"
	"polarstar/internal/topo"
)

func main() {
	// The Table 3 PolarStar: 1064 routers.
	ps, err := topo.NewPolarStar(11, 3, topo.KindIQ)
	if err != nil {
		log.Fatal(err)
	}
	analytic := route.NewPolarStar(ps)
	table := route.NewTable(ps.G, route.AllMinPaths)

	cmp := route.CompareState(analytic, table)
	fmt.Printf("Network: %v\n\n", ps.G)
	fmt.Printf("Analytic router state (per router):   %8d bytes  (O(q²+d'²))\n", cmp.AnalyticPerRouter)
	fmt.Printf("Distance-table floor (per router):    %8d bytes  (O(N))\n", cmp.TablePerRouter)
	fmt.Printf("All-minpath entries (per router):     %8d entries (O(N·paths))\n", cmp.AllMinpathPerRouter)
	fmt.Printf("All-minpath entries (network-wide):   %8d entries\n\n", cmp.AllMinpathEntries)

	// Both routers agree on every distance; the analytic one needs no
	// product-wide state to do it.
	rng := polarstar.RandomSource(7)
	checked := 0
	for i := 0; i < 2000; i++ {
		src, dst := rng.Intn(ps.G.N()), rng.Intn(ps.G.N())
		if src == dst {
			continue
		}
		a := route.Path(analytic, src, dst, rng)
		if len(a)-1 != table.Dist(src, dst) {
			log.Fatalf("analytic path %v not minimal (want %d hops)", a, table.Dist(src, dst))
		}
		checked++
	}
	fmt.Printf("Verified %d random analytic minpaths against BFS ground truth.\n\n", checked)

	// Path diversity, the other side of the coin: the number of
	// edge-disjoint paths bounds fault tolerance per pair.
	src, dst := 0, ps.G.N()-1
	paths := route.EdgeDisjointPaths(ps.G, src, dst, 0)
	fmt.Printf("Edge-disjoint paths between routers %d and %d: %d (radix %d)\n",
		src, dst, len(paths), ps.Radix())
	for i, p := range paths[:3] {
		fmt.Printf("  e.g. path %d: %v\n", i, p)
	}
}
