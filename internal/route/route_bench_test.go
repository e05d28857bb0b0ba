package route

import (
	"math/rand"
	"testing"

	"polarstar/internal/topo"
)

func BenchmarkAnalyticRoutePSIQ(b *testing.B) {
	ps := topo.MustNewPolarStar(11, 3, topo.KindIQ)
	r := NewPolarStar(ps)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := rng.Intn(ps.G.N()), rng.Intn(ps.G.N())
		_ = Path(r, src, dst, rng)
	}
}

func BenchmarkTableBuildPSIQ(b *testing.B) {
	ps := topo.MustNewPolarStar(11, 3, topo.KindIQ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewTable(ps.G, AllMinPaths)
	}
}

func BenchmarkTableRoutePSIQ(b *testing.B) {
	ps := topo.MustNewPolarStar(11, 3, topo.KindIQ)
	t := NewTable(ps.G, AllMinPaths)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := rng.Intn(ps.G.N()), rng.Intn(ps.G.N())
		_ = Path(t, src, dst, rng)
	}
}

// BenchmarkTableRoute routes random pairs on Bundlefly at two sizes: 882
// routers, where the table (2.2 MiB) does not fit L2 and a path costs a
// miss per hop, and 50 routers, where it is cache-resident.
func BenchmarkTableRoute(b *testing.B) {
	for _, tc := range []struct {
		name      string
		q, dPrime int
	}{{"bf", 7, 4}, {"bf-small", 5, 2}} {
		b.Run(tc.name, func(b *testing.B) {
			g := must(topo.NewBundlefly(tc.q, tc.dPrime)).G
			t := NewTable(g, AllMinPaths)
			rng := rand.New(rand.NewSource(1))
			var buf []int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = t.AppendPath(buf[:0], rng.Intn(g.N()), rng.Intn(g.N()), rng)
			}
		})
	}
}

// BenchmarkTableDropEdge repairs a paper-scale table after one link
// failure (the fault engine's per-event cost), a fresh clone per drop.
func BenchmarkTableDropEdge(b *testing.B) {
	g := topo.MustNewPolarStar(11, 3, topo.KindIQ).G
	base := NewTable(g, AllMinPaths)
	edges := g.Edges()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := base.Clone()
		e := edges[rng.Intn(len(edges))]
		b.StartTimer()
		t.DropEdge(e[0], e[1])
	}
}

func BenchmarkEdgeDisjointPaths(b *testing.B) {
	ps := topo.MustNewPolarStar(5, 4, topo.KindIQ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EdgeDisjointPaths(ps.G, 0, ps.G.N()-1, 0)
	}
}

// BenchmarkEDSTBuild1k is the repo benchmark's call/edst_1k unit: three
// edge-disjoint BFS-tree lanes on PolarStar-IQ(11,3), 1 064 routers.
func BenchmarkEDSTBuild1k(b *testing.B) {
	ps := topo.MustNewPolarStar(11, 3, topo.KindIQ)
	min := NewPolarStar(ps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewMultiPath(ps.G, min, 3, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}
