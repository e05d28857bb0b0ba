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

func BenchmarkEdgeDisjointPaths(b *testing.B) {
	ps := topo.MustNewPolarStar(5, 4, topo.KindIQ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = EdgeDisjointPaths(ps.G, 0, ps.G.N()-1, 0)
	}
}
