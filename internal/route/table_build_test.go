package route

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

// scalarTable is the per-destination build the kernel batches replaced,
// kept as their oracle: one scalar BFS per destination gives dist row
// dst, and a neighbour scan per cur gives masks entry (dst, cur).
func scalarTable(g *graph.Graph, mode TableMode) *Table {
	n := g.N()
	mb := (g.MaxDegree() + 7) / 8
	slab := make([]uint8, n*n*(1+mb))
	t := &Table{g: g, mode: mode, mb: mb, dist: slab[:n*n], masks: slab[n*n:]}
	var row []int32
	var scratch graph.BFSScratch
	for dst := 0; dst < n; dst++ {
		row = g.BFSDistances(dst, row, &scratch)
		for w, d := range row {
			t.dist[dst*n+w] = uint8(d) // Unreachable (-1) is 0xff
		}
		for cur := 0; cur < n; cur++ {
			t.fillEntry(g, dst, cur)
		}
	}
	return t
}

// randomTableGraph draws edges uniformly; u == v draws become loop
// annotations, and sparse draws leave the graph disconnected.
func randomTableGraph(n, edges int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(fmt.Sprintf("rand%d/%d", n, edges), n)
	for i := 0; i < edges; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

// TestTableBuildMatchesScalar: the batched build writes exactly the
// scalar oracle's slab — distances and masks — on every table-routed
// -small spec's graph and the Table 3 ones, at orders around the 64-lane
// batch edges, on disconnected graphs and graphs with loops, at
// GOMAXPROCS 1 and 4.
func TestTableBuildMatchesScalar(t *testing.T) {
	loops := graph.NewBuilder("loops", 20)
	for v := 0; v < 20; v++ {
		loops.AddEdge(v, v)
		loops.AddEdge(v, (v+1)%20)
		loops.AddEdge(v, (v*7)%20)
	}
	graphs := []*graph.Graph{
		must(topo.NewBundlefly(5, 2)).G,
		must(topo.NewDragonfly(6, 3)).G,
		must(topo.NewLPS(13, 5)).G,
		must(topo.NewMegafly(3, 6)).G,
		must(topo.NewER(7)).G,
		must(topo.NewMMS(5)).G,
		must(topo.NewFatTree(5)).G,
		must(topo.NewHyperX(4, 4, 4)).G,
		topo.MustNewPolarStar(5, 4, topo.KindIQ).G,
		topo.MustNewPolarStar(5, 4, topo.KindPaley).G,
		topo.MustNewPolarStar(4, 3, topo.KindIQ).G,
		must(topo.NewBundlefly(7, 4)).G,
		must(topo.NewLPS(23, 13)).G,
		must(topo.NewDragonfly(12, 6)).G,
		must(topo.NewMegafly(8, 16)).G,
		loops.Build(),
		randomTableGraph(200, 90, 5), // disconnected, isolated vertices
	}
	for i, n := range []int{1, 63, 64, 65, 130} {
		graphs = append(graphs, randomTableGraph(n, 6*n, int64(i)))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, g := range graphs {
		want := scalarTable(g, AllMinPaths).Slab()
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			if got := NewTable(g, AllMinPaths).Slab(); !bytes.Equal(got, want) {
				t.Errorf("%v at GOMAXPROCS %d: slab differs from the scalar build", g, procs)
			}
		}
	}
}

// TestTableDistanceLimit: a shortest path beyond 254 hops panics with the
// limit instead of wrapping around to "unreachable".
func TestTableDistanceLimit(t *testing.T) {
	b := graph.NewBuilder("path300", 300)
	for v := 0; v+1 < 300; v++ {
		b.AddEdge(v, v+1)
	}
	g := b.Build()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "254") {
			t.Errorf("NewTable on a 300-vertex path: panic %q, want the 254-hop limit", msg)
		}
	}()
	NewTable(g, AllMinPaths)
}

// dirtyRows counts the destinations whose rows DropEdge(u, v) recomputes.
func dirtyRows(tab *Table, u, v int) int {
	n, c := tab.g.N(), 0
	for d := 0; d < n; d++ {
		if tab.dist[d*n+u] != tab.dist[d*n+v] {
			c++
		}
	}
	return c
}

// TestRepairMatchesRebuildMultiBatch drives DropEdge through more than
// one kernel batch: the edge of bf-small that dirties the most rows, then
// a bridge whose removal dirties every row and splits the graph.
func TestRepairMatchesRebuildMultiBatch(t *testing.T) {
	bf := must(topo.NewBundlefly(5, 2)).G
	bridged := graph.NewBuilder("bridged", 200) // two chorded 100-cycles, one bridge
	for half := 0; half < 200; half += 100 {
		for i := 0; i < 100; i++ {
			bridged.AddEdge(half+i, half+(i+1)%100)
			bridged.AddEdge(half+i, half+(i+7)%100)
		}
	}
	bridged.AddEdge(0, 100)
	split := bridged.Build()
	full := NewTable(bf, AllMinPaths)
	var worst [2]int
	for _, e := range bf.Edges() {
		if dirtyRows(full, e[0], e[1]) > dirtyRows(full, worst[0], worst[1]) {
			worst = e
		}
	}
	for _, c := range []struct {
		g    *graph.Graph
		e    [2]int
		more int // dirty rows must exceed this
	}{{bf, worst, 64}, {split, [2]int{0, 100}, 199}} {
		for _, mode := range []TableMode{AllMinPaths, SinglePath} {
			tab := NewTable(c.g, mode).Clone()
			if d := dirtyRows(tab, c.e[0], c.e[1]); d <= c.more {
				t.Fatalf("%v drop %v: %d dirty rows, want more than %d", c.g, c.e, d, c.more)
			}
			tab.DropEdge(c.e[0], c.e[1])
			cur := c.g.RemoveEdges([][2]int{c.e})
			if !sameTables(tab, NewTable(cur, mode)) {
				t.Errorf("%v mode %d drop %v: repaired table differs from rebuild", c.g, mode, c.e)
			}
		}
	}
	if tab := NewTable(split.RemoveEdges([][2]int{{0, 100}}), AllMinPaths); tab.Dist(0, 100) != -1 {
		t.Errorf("bridge drop left dist(0, 100) = %d", tab.Dist(0, 100))
	}
}

// FuzzTableBuild builds a graph of up to 150 vertices from the input
// (first byte: order, then one byte pair per edge, last byte: the edge to
// drop), checks NewTable against the scalar oracle and one DropEdge
// against a rebuild.
func FuzzTableBuild(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{4, 0, 1, 1, 2, 2, 3, 3, 0, 1})
	f.Add([]byte("\x95the quick brown fox jumps over the lazy dog, twice: the quick brown fox jumps over the lazy dog"))
	f.Add(bytes.Repeat([]byte{70, 3, 9, 27, 81, 5, 69}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%150
		b := graph.NewBuilder("fuzz", n)
		for i := 1; i+1 < len(data); i += 2 {
			b.AddEdge(int(data[i])%n, int(data[i+1])%n)
		}
		g := b.Build()
		tab := NewTable(g, AllMinPaths)
		if !bytes.Equal(tab.Slab(), scalarTable(g, AllMinPaths).Slab()) {
			t.Fatalf("%v: slab differs from the scalar build", g)
		}
		edges := g.Edges()
		if len(edges) == 0 {
			return
		}
		e := edges[int(data[len(data)-1])%len(edges)]
		tab.DropEdge(e[0], e[1])
		if !sameTables(tab, NewTable(g.RemoveEdges([][2]int{e}), AllMinPaths)) {
			t.Fatalf("%v drop %v: repaired table differs from rebuild", g, e)
		}
	})
}
