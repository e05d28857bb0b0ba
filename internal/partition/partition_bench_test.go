package partition

import (
	"testing"

	"polarstar/internal/topo"
)

func BenchmarkBisectPSIQ310(b *testing.B) {
	ps := topo.MustNewPolarStar(5, 4, topo.KindIQ)
	for i := 0; i < b.N; i++ {
		Bisect(ps.G, int64(i), Options{})
	}
}

func BenchmarkBisectDragonfly876(b *testing.B) {
	df := must(topo.NewDragonfly(12, 6))
	for i := 0; i < b.N; i++ {
		Bisect(df.G, int64(i), Options{})
	}
}
