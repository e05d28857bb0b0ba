// Quickstart: construct a PolarStar network, inspect its structure,
// verify the diameter-3 guarantee, and route a few packets with the
// analytic minpath router.
package main

import (
	"fmt"
	"log"

	"polarstar"
)

func main() {
	// The paper's Table 3 configuration: ER_11 * IQ_3 — 1064 routers of
	// radix 15.
	ps, err := polarstar.New(11, 3, polarstar.IQ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Topology:   %v\n", ps.G)
	fmt.Printf("Radix:      %d (= structure %d + supernode %d)\n", ps.Radix(), ps.Q()+1, ps.DPrime())
	fmt.Printf("Supernodes: %d of %d routers each\n", ps.NumGroups(), ps.Super.N())

	// Verify the headline property: diameter at most 3 (Theorem 4).
	stats := ps.G.AllPairsStats()
	fmt.Printf("Diameter:   %d (connected: %v, avg path %.3f)\n",
		stats.Diameter, stats.Connected, stats.AvgPath)

	// The §9.2 analytic router needs no product-wide tables: it computes
	// every minimal path from the factor graphs and the bijection f.
	router := polarstar.NewMinRouter(ps)
	rng := polarstar.RandomSource(42)
	for i := 0; i < 3; i++ {
		src, dst := rng.Intn(ps.G.N()), rng.Intn(ps.G.N())
		path := polarstar.Route(router, src, dst, rng)
		fmt.Printf("Minpath %d -> %d: %v (%d hops, valid: %v)\n",
			src, dst, path, len(path)-1, polarstar.ValidPath(ps.G, path))
	}

	// Factor-graph properties that make this work (§5).
	fmt.Printf("ER_11 has Property R:  %v\n", polarstar.HasPropertyR(ps.Structure.G, 2))
	fmt.Printf("IQ_3  has Property R*: %v\n", polarstar.HasPropertyRStar(ps.Super.G, ps.Super.F))
}
