// Structural-analysis kernel benchmarks: the bit-parallel all-pairs BFS
// engine on a full-scale PolarStar.
package polarstar_test

import (
	"sync"
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

// allPairsGraph lazily builds PolarStar(q=23, d'=11, IQ): 13272 routers,
// the smallest in-repo PolarStar above the 10k-vertex acceptance bar.
var allPairsGraph = sync.OnceValue(func() *graph.Graph {
	return topo.MustNewPolarStar(23, 11, topo.KindIQ).G
})

// BenchmarkAllPairsStats measures the bit-parallel engine on a
// 13272-vertex PolarStar (`go run ./bench` graph_search times the same
// call end to end).
func BenchmarkAllPairsStats(b *testing.B) {
	g := allPairsGraph()
	b.ResetTimer()
	var st graph.PathStats
	for i := 0; i < b.N; i++ {
		st = g.AllPairsStats()
	}
	b.ReportMetric(float64(st.Diameter), "diameter")
	b.ReportMetric(st.AvgPath, "avg_path")
}

// BenchmarkDistanceHistogram measures the exact distance-distribution
// variant on the same graph.
func BenchmarkDistanceHistogram(b *testing.B) {
	g := allPairsGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DistanceHistogram()
	}
}
