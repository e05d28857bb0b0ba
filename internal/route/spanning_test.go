package route

import (
	"errors"
	"slices"
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

func validateTrees(t *testing.T, n int, trees []*SpanningTree, g interface{ HasEdge(u, v int) bool }) {
	t.Helper()
	used := map[[2]int]bool{}
	for ti, tree := range trees {
		if len(tree.Parent) != n {
			t.Fatalf("tree %d has %d vertices, want %d", ti, len(tree.Parent), n)
		}
		roots := 0
		for v, p := range tree.Parent {
			if p == -1 {
				roots++
				continue
			}
			if p < 0 {
				t.Fatalf("tree %d: vertex %d unvisited", ti, v)
			}
			if !g.HasEdge(v, int(p)) {
				t.Fatalf("tree %d: edge (%d,%d) not in graph", ti, v, p)
			}
			a, b := v, int(p)
			if a > b {
				a, b = b, a
			}
			if used[[2]int{a, b}] {
				t.Fatalf("edge (%d,%d) reused across trees", a, b)
			}
			used[[2]int{a, b}] = true
		}
		if roots != 1 {
			t.Fatalf("tree %d has %d roots", ti, roots)
		}
		// Connectivity: walking parents from every vertex reaches the root.
		for v := range tree.Parent {
			cur, steps := v, 0
			for tree.Parent[cur] != -1 {
				cur = int(tree.Parent[cur])
				if steps++; steps > n {
					t.Fatalf("tree %d has a parent cycle", ti)
				}
			}
			if cur != tree.Root {
				t.Fatalf("tree %d: vertex %d does not reach root", ti, v)
			}
		}
	}
}

func TestEdgeDisjointSpanningTreesOnPolarStar(t *testing.T) {
	ps := topo.MustNewPolarStar(4, 3, topo.KindIQ)
	trees, err := EdgeDisjointSpanningTrees(ps.G, 0, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A radix-8 well-connected graph should yield several disjoint trees
	// (Nash–Williams bound is ~minDegree/2; greedy finds at least 2).
	if len(trees) < 2 {
		t.Fatalf("only %d disjoint spanning trees found", len(trees))
	}
	validateTrees(t, ps.G.N(), trees, ps.G)
}

func TestEdgeDisjointSpanningTreesLimit(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	trees, err := EdgeDisjointSpanningTrees(ps.G, 5, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("limit ignored: %d trees", len(trees))
	}
	if trees[0].Root != 5 || trees[1].Root != 5 {
		t.Error("root not respected")
	}
	validateTrees(t, ps.G.N(), trees, ps.G)
}

func TestSpanningTreeDepth(t *testing.T) {
	// A path graph's spanning tree from an end has depth n-1.
	g := newCycleBuilder(6)
	trees, err := EdgeDisjointSpanningTrees(g, 0, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 {
		t.Fatalf("C6 should give exactly 1 spanning tree, got %d", len(trees))
	}
	if d := maxDepth(trees[0].Depths()); d < 3 || d > 5 {
		t.Errorf("C6 tree depth = %d, want 3..5", d)
	}
	// Depths walks parent chains in any vertex order; a vertex the tree
	// does not reach reads -1.
	partial := &SpanningTree{Root: 2, Parent: []int32{1, 2, -1, -2, 0}}
	if got, want := partial.Depths(), []int32{2, 1, 0, -1, 3}; !slices.Equal(got, want) || maxDepth(partial.Depths()) != 3 {
		t.Errorf("partial tree depths = %v (max %d), want %v (max 3)", got, maxDepth(partial.Depths()), want)
	}
	total := 0
	for _, p := range trees[0].Parent {
		if p >= 0 {
			total++
		}
	}
	if total != 5 {
		t.Errorf("tree has %d child links, want n-1 = 5", total)
	}
	edges := trees[0].Edges()
	if len(edges) != 5 {
		t.Errorf("Edges() returned %d edges, want 5", len(edges))
	}
	for _, e := range edges {
		if trees[0].Parent[e[1]] != int32(e[0]) {
			t.Errorf("Edges() pair (%d,%d) is not parent-child", e[0], e[1])
		}
	}
}

func TestTreesDeterministic(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	a, errA := EdgeDisjointSpanningTrees(ps.G, 0, 8, 7)
	b, errB := EdgeDisjointSpanningTrees(ps.G, 0, 8, 7)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if len(a) != len(b) {
		t.Fatal("non-deterministic tree count")
	}
	for i := range a {
		for v := range a[i].Parent {
			if a[i].Parent[v] != b[i].Parent[v] {
				t.Fatal("non-deterministic tree shape")
			}
		}
	}
}

// disconnectedGraph builds two components (a triangle and an edge).
func disconnectedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder("disconnected", 5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 4)
	return b.Build()
}

func TestSpanningTreeErrors(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	extractors := map[string]func(g *graph.Graph, root, maxTrees int, seed int64) ([]*SpanningTree, error){
		"kruskal": EdgeDisjointSpanningTrees,
		"bfs":     EdgeDisjointBFSTrees,
	}
	for name, extract := range extractors {
		t.Run(name, func(t *testing.T) {
			for _, bad := range []int{0, -1} {
				if _, err := extract(ps.G, 0, bad, 1); !errors.Is(err, ErrTreeCount) {
					t.Errorf("maxTrees=%d: err = %v, want ErrTreeCount", bad, err)
				}
			}
			if _, err := extract(disconnectedGraph(t), 0, 2, 1); !errors.Is(err, ErrDisconnected) {
				t.Errorf("disconnected graph: err = %v, want ErrDisconnected", err)
			}
			if _, err := extract(ps.G, -1, 2, 1); err == nil {
				t.Error("root out of range accepted")
			}
			if _, err := extract(ps.G, ps.G.N(), 2, 1); err == nil {
				t.Error("root beyond N accepted")
			}
		})
	}
	if _, err := NewTreeEscape(ps.G, 0, 1); !errors.Is(err, ErrTreeCount) {
		t.Errorf("NewTreeEscape maxTrees=0: err = %v, want ErrTreeCount", err)
	}
	if _, err := NewTreeEscape(disconnectedGraph(t), 2, 1); !errors.Is(err, ErrDisconnected) {
		t.Errorf("NewTreeEscape disconnected: err = %v, want ErrDisconnected", err)
	}
	if _, err := NewTreeEscape(ps.G, 2, 1); err != nil {
		t.Errorf("NewTreeEscape with two trees: %v", err)
	}
}

func TestEdgeDisjointBFSTreesOnPolarStar(t *testing.T) {
	ps := topo.MustNewPolarStar(4, 3, topo.KindIQ)
	trees, err := EdgeDisjointBFSTrees(ps.G, 0, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) < 3 {
		t.Fatalf("only %d disjoint BFS trees found on radix-8 PolarStar, want >= 3", len(trees))
	}
	validateTrees(t, ps.G.N(), trees, ps.G)
	// The point of the BFS extractor: trees shallow enough to route over.
	// PolarStar-IQ(4,3) has diameter 3; edge contention between the trees
	// deepens them beyond the eccentricity, but centre re-rooting keeps
	// depth ~8 where Kruskal trees land at 14+.
	for i, tr := range trees {
		if d := maxDepth(tr.Depths()); d > 10 {
			t.Errorf("BFS tree %d depth = %d, want <= 10", i, d)
		}
	}
}

func TestBFSTreesDeterministic(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	a, errA := EdgeDisjointBFSTrees(ps.G, 0, 4, 7)
	b, errB := EdgeDisjointBFSTrees(ps.G, 0, 4, 7)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if len(a) != len(b) {
		t.Fatal("non-deterministic tree count")
	}
	for i := range a {
		for v := range a[i].Parent {
			if a[i].Parent[v] != b[i].Parent[v] {
				t.Fatal("non-deterministic tree shape")
			}
		}
	}
}
