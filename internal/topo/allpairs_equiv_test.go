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
		{"ER", MustNewER(7).G},
		{"IQ", mustSN(t, KindIQ, 8).G},
		{"Paley", mustSN(t, KindPaley, 6).G},
		{"BDF", mustSN(t, KindBDF, 6).G},
		{"Complete", mustSN(t, KindComplete, 5).G},
		{"PolarStar-IQ", MustNewPolarStar(5, 4, KindIQ).G},
		{"PolarStar-Paley", MustNewPolarStar(5, 4, KindPaley).G},
		{"Bundlefly", mustBF(t, 5, 2).G},
		{"MMS", mustMMS(t, 5).G},
		{"Dragonfly", mustDF(t, 6, 3).G},
		{"HyperX", mustHX(t, 4, 4, 4).G},
		{"FatTree", mustFT(t, 6).G},
		{"Megafly", mustMF(t, 3, 6).G},
		{"Kautz", mustKautz(t, 4, 2).G},
		{"Jellyfish", jf},
		{"LPS", mustLPS(t, 13, 5).G},
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

func mustSN(t *testing.T, kind SupernodeKind, d int) *Supernode {
	t.Helper()
	s, err := NewSupernode(kind, d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustBF(t *testing.T, q, dPrime int) *Bundlefly {
	t.Helper()
	bf, err := NewBundlefly(q, dPrime)
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func mustMMS(t *testing.T, q int) *MMS {
	t.Helper()
	m, err := NewMMS(q)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustDF(t *testing.T, a, h int) *Dragonfly {
	t.Helper()
	df, err := NewDragonfly(a, h)
	if err != nil {
		t.Fatal(err)
	}
	return df
}

func mustHX(t *testing.T, dims ...int) *HyperX {
	t.Helper()
	hx, err := NewHyperX(dims...)
	if err != nil {
		t.Fatal(err)
	}
	return hx
}

func mustFT(t *testing.T, p int) *FatTree {
	t.Helper()
	ft, err := NewFatTree(p)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func mustMF(t *testing.T, rho, a int) *Megafly {
	t.Helper()
	mf, err := NewMegafly(rho, a)
	if err != nil {
		t.Fatal(err)
	}
	return mf
}

func mustKautz(t *testing.T, d, k int) *Kautz {
	t.Helper()
	kz, err := NewKautz(d, k)
	if err != nil {
		t.Fatal(err)
	}
	return kz
}

func mustLPS(t *testing.T, p, q int) *LPS {
	t.Helper()
	l, err := NewLPS(p, q)
	if err != nil {
		t.Fatal(err)
	}
	return l
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
		er := MustNewER(q)
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
