package route

import (
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

func edgeSetOf(path []int) map[[2]int]bool {
	s := map[[2]int]bool{}
	for i := 0; i+1 < len(path); i++ {
		u, v := path[i], path[i+1]
		if u > v {
			u, v = v, u
		}
		s[[2]int{u, v}] = true
	}
	return s
}

func assertDisjointValid(t *testing.T, g *graph.Graph, paths [][]int, src, dst int) {
	t.Helper()
	used := map[[2]int]bool{}
	for _, p := range paths {
		if p[0] != src || p[len(p)-1] != dst {
			t.Fatalf("path endpoints wrong: %v", p)
		}
		if !PathValid(g, p) {
			t.Fatalf("invalid path: %v", p)
		}
		for e := range edgeSetOf(p) {
			if used[e] {
				t.Fatalf("edge %v reused", e)
			}
			used[e] = true
		}
	}
}

func TestEdgeDisjointPathsComplete(t *testing.T) {
	// K_6: exactly 5 edge-disjoint paths between any pair.
	b := graph.NewBuilder("k6", 6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			b.AddEdge(i, j)
		}
	}
	g := b.Build()
	paths := EdgeDisjointPaths(g, 0, 5, 0)
	if len(paths) != 5 {
		t.Fatalf("K6 disjoint paths = %d, want 5", len(paths))
	}
	assertDisjointValid(t, g, paths, 0, 5)
}

func TestEdgeDisjointPathsCycle(t *testing.T) {
	g := newCycleBuilder(8)
	paths := EdgeDisjointPaths(g, 0, 4, 0)
	if len(paths) != 2 {
		t.Fatalf("C8 disjoint paths = %d, want 2", len(paths))
	}
	assertDisjointValid(t, g, paths, 0, 4)
}

func TestEdgeDisjointPathsPlantedBottleneck(t *testing.T) {
	// Two K_5 blobs joined by exactly 3 bridges: max disjoint paths = 3.
	b := graph.NewBuilder("bottleneck", 10)
	for c := 0; c < 2; c++ {
		for i := 0; i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddEdge(c*5+i, c*5+j)
			}
		}
	}
	b.AddEdge(0, 5)
	b.AddEdge(1, 6)
	b.AddEdge(2, 7)
	g := b.Build()
	paths := EdgeDisjointPaths(g, 3, 8, 0)
	if len(paths) != 3 {
		t.Fatalf("bottleneck disjoint paths = %d, want 3", len(paths))
	}
	assertDisjointValid(t, g, paths, 3, 8)
	// Limit respected.
	if got := EdgeDisjointPaths(g, 3, 8, 2); len(got) != 2 {
		t.Errorf("limit 2 returned %d paths", len(got))
	}
}

// TestPolarStarEdgeConnectivity: PolarStar's bisection/resilience story
// rests on rich path diversity — the edge connectivity of small
// instances equals the minimum degree (the best possible).
func TestPolarStarEdgeConnectivity(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	if k := edgeConnectivity(ps.G); k != ps.G.MinDegree() {
		t.Errorf("edge connectivity = %d, want min degree %d", k, ps.G.MinDegree())
	}
}

// edgeConnectivity is the exact edge connectivity of a connected g: by
// Menger, the fewest edge-disjoint paths from vertex 0 to another vertex.
func edgeConnectivity(g *graph.Graph) int {
	k := g.MaxDegree()
	for v := 1; v < g.N(); v++ {
		k = min(k, len(EdgeDisjointPaths(g, 0, v, 0)))
	}
	return k
}

func TestEdgeDisjointDegenerate(t *testing.T) {
	g := newCycleBuilder(4)
	if EdgeDisjointPaths(g, 2, 2, 0) != nil {
		t.Error("self pair should have no paths")
	}
	// Disconnected pair.
	b := graph.NewBuilder("disc", 4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if got := EdgeDisjointPaths(b.Build(), 0, 3, 0); len(got) != 0 {
		t.Errorf("disconnected pair returned %d paths", len(got))
	}
}
