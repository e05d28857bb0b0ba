package topo

import (
	"testing"

	"polarstar/internal/graph"
)

// TestAllPairsStatsGoldenAllConstructors pins the tentpole acceptance
// criterion: on a graph from every topology constructor in this package,
// the bit-parallel AllPairsStats returns bit-identical
// {Diameter, AvgPath, Pairs, Connected} to the scalar reference
// implementation.
func TestAllPairsStatsGoldenAllConstructors(t *testing.T) {
	jf, err := NewJellyfish(120, 7, 3)
	if err != nil {
		t.Fatalf("jellyfish: %v", err)
	}
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"ER", must(NewER(7)).G},
		{"IQ", must(NewSupernode(KindIQ, 8)).G},
		{"Paley", must(NewSupernode(KindPaley, 6)).G},
		{"BDF", must(NewSupernode(KindBDF, 6)).G},
		{"Complete", must(NewSupernode(KindComplete, 5)).G},
		{"PolarStar-IQ", MustNewPolarStar(5, 4, KindIQ).G},
		{"PolarStar-Paley", MustNewPolarStar(5, 4, KindPaley).G},
		{"Bundlefly", must(NewBundlefly(5, 2)).G},
		{"MMS", must(NewMMS(5)).G},
		{"Dragonfly", must(NewDragonfly(6, 3)).G},
		{"HyperX", must(NewHyperX(4, 4, 4)).G},
		{"FatTree", must(NewFatTree(6)).G},
		{"Megafly", must(NewMegafly(3, 6)).G},
		{"Kautz", must(NewKautz(4, 2)).G},
		{"Jellyfish", jf},
		{"LPS", must(NewLPS(13, 5)).G},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bit := c.g.AllPairsStats()
			scalar := allPairsStatsScalar(c.g)
			if bit != scalar {
				t.Errorf("%s (%v): bit-parallel %+v != scalar %+v", c.name, c.g, bit, scalar)
			}
		})
	}
}

// allPairsStatsScalar is the reference: one scalar BFS per source.
func allPairsStatsScalar(g *graph.Graph) graph.PathStats {
	stats := graph.PathStats{Connected: true}
	var sum int64
	var dist []int32
	var scratch graph.BFSScratch
	for src := 0; src < g.N(); src++ {
		dist = g.BFSDistances(src, dist, &scratch)
		for v, d := range dist {
			switch {
			case v == src:
			case d == graph.Unreachable:
				stats.Connected = false
			default:
				stats.Diameter = max(stats.Diameter, d)
				sum += int64(d)
				stats.Pairs++
			}
		}
	}
	if stats.Pairs > 0 {
		stats.AvgPath = float64(sum) / float64(stats.Pairs)
	}
	return stats
}

// must returns v and panics on err; test set-up here only builds valid
// instances.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestBitBFSPropertyJellyfishER is the ISSUE's named property test: on
// random Jellyfish instances and on ER_q polarity graphs — plus degraded
// (edge-deleted, often disconnected) versions of both — per-source
// bit-parallel aggregates match scalar BFSDistances exactly.
func TestBitBFSPropertyJellyfishER(t *testing.T) {
	graphs := []*graph.Graph{}
	for seed := int64(1); seed <= 3; seed++ {
		jf, err := NewJellyfish(80+10*int(seed), 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, jf)
		// Heavily degraded Jellyfish: drop every third edge — usually
		// leaves stragglers behind, exercising the disconnected path.
		graphs = append(graphs, jf.FilterEdges(func(c, u, v int) bool { return (u+v+int(seed))%3 != 0 }))
	}
	for _, q := range []int{5, 7, 9} {
		er := must(NewER(q))
		graphs = append(graphs, er.G)
		graphs = append(graphs, er.G.FilterEdges(func(c, u, v int) bool { return (u*v)%4 != 1 }))
	}
	var (
		bit  graph.BitBFSScratch
		bfs  graph.BFSScratch
		dist []int32
	)
	for _, g := range graphs {
		var srcs [64]int32
		for base := 0; base < g.N(); base += 64 {
			lanes := g.N() - base
			if lanes > 64 {
				lanes = 64
			}
			for i := 0; i < lanes; i++ {
				srcs[i] = int32(base + i)
			}
			st, _ := g.BitBFSBatch(srcs[:lanes], &bit, nil, nil)
			for l := 0; l < lanes; l++ {
				src := base + l
				dist = g.BFSDistances(src, dist, &bfs)
				var ecc int32
				var sum, reached int64
				for v, d := range dist {
					if v == src || d == graph.Unreachable {
						continue
					}
					if d > ecc {
						ecc = d
					}
					sum += int64(d)
					reached++
				}
				if st.Ecc[l] != ecc || st.Sum[l] != sum || st.Reached[l] != reached {
					t.Fatalf("%v src %d: kernel (%d,%d,%d) != scalar (%d,%d,%d)",
						g, src, st.Ecc[l], st.Sum[l], st.Reached[l], ecc, sum, reached)
				}
			}
		}
	}
}
