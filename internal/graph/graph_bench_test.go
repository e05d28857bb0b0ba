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
		g.BFSDistances(i%g.N(), dist, nil)
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

var laneCountSink [64]int64

// BenchmarkLaneCounter is the advance pass's lane attribution alone: one
// add per op, drained every 4096 adds (a level at n = 4096). sparse words
// carry one or two lanes, as a vertex does on the first level of a batch;
// dense words carry about half of them, as on the middle levels.
func BenchmarkLaneCounter(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sparse := make([]uint64, 4096)
	dense := make([]uint64, 4096)
	for i := range sparse {
		sparse[i] = 1<<uint(rng.Intn(64)) | 1<<uint(rng.Intn(64))
		dense[i] = rng.Uint64()
	}
	for _, c := range []struct {
		name  string
		words []uint64
	}{{"sparse", sparse}, {"dense", dense}} {
		b.Run(c.name, func(b *testing.B) {
			var cnt laneCounter
			for i := 0; i < b.N; i++ {
				cnt.add(c.words[i&4095])
				if i&4095 == 4095 {
					cnt.drain(&laneCountSink)
				}
			}
			cnt.drain(&laneCountSink)
		})
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
