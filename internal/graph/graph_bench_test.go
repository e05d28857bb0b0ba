package graph

import (
	"math/rand"
	"testing"
)

func randomGraph(n, deg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("bench", n)
	for v := 0; v < n; v++ {
		for k := 0; k < deg/2; k++ {
			b.AddEdge(v, rng.Intn(n))
		}
	}
	return b.Build()
}

func BenchmarkBFS1k(b *testing.B) {
	g := randomGraph(1000, 16, 1)
	dist := make([]int32, g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSDistances(i%g.N(), dist)
	}
}

func BenchmarkAllPairsStats1k(b *testing.B) {
	g := randomGraph(1000, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AllPairsStats()
	}
}

// BenchmarkBitBFSBatchRows is one DeltaStats row batch: 64 sources with
// per-lane level counts at n = 4096.
func BenchmarkBitBFSBatchRows(b *testing.B) {
	g := randomGraph(4096, 16, 1)
	srcs := make([]int32, 64)
	for i := range srcs {
		srcs[i] = int32(i * 64)
	}
	const stride = 16
	rows := make([]int32, len(srcs)*stride)
	var s BitBFSScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.BitBFSBatchRows(srcs, &s, rows, stride); !ok {
			b.Fatal("stride overflow")
		}
	}
}

func BenchmarkBuild10kEdges(b *testing.B) {
	for i := 0; i < b.N; i++ {
		randomGraph(1000, 20, int64(i))
	}
}

func BenchmarkGirth(b *testing.B) {
	g := randomGraph(500, 10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Girth()
	}
}
