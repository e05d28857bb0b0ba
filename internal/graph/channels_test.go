package graph

import (
	"math/rand"
	"testing"
)

func randomTestGraph(t *testing.T, n, m int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("rand", n)
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		b.AddEdge(u, v) // u == v records a loop; duplicates are no-ops
	}
	return b.Build()
}

func TestChannelIDsAreDenseCSRPositions(t *testing.T) {
	g := randomTestGraph(t, 50, 300, 1)
	if g.NumChannels() != 2*g.M() {
		t.Fatalf("NumChannels = %d, want %d", g.NumChannels(), 2*g.M())
	}
	seen := make([]bool, g.NumChannels())
	for u := 0; u < g.N(); u++ {
		base := g.FirstChannel(u)
		for k, w := range g.Neighbors(u) {
			c := g.ChannelID(u, int(w))
			if c != base+k {
				t.Fatalf("ChannelID(%d,%d) = %d, want FirstChannel+k = %d", u, w, c, base+k)
			}
			if g.ChannelTo(c) != int(w) {
				t.Fatalf("ChannelTo(%d) = %d, want %d", c, g.ChannelTo(c), w)
			}
			if seen[c] {
				t.Fatalf("channel id %d assigned twice", c)
			}
			seen[c] = true
		}
	}
	for c, s := range seen {
		if !s {
			t.Fatalf("channel id %d unused", c)
		}
	}
	// Non-edges map to -1.
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if got := g.ChannelID(u, v) >= 0; got != (g.HasEdge(u, v) || (u == v && false)) {
				if got != g.HasEdge(u, v) {
					t.Fatalf("ChannelID(%d,%d) presence %v != HasEdge %v", u, v, got, g.HasEdge(u, v))
				}
			}
		}
	}
}

func sameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() || a.NumLoops() != b.NumLoops() {
		t.Fatalf("shape mismatch: %v vs %v", a, b)
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("degree mismatch at %d: %d vs %d", v, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("neighbor mismatch at %d: %v vs %v", v, na, nb)
			}
		}
		if a.HasLoop(v) != b.HasLoop(v) {
			t.Fatalf("loop mismatch at %d", v)
		}
	}
}

// TestFilterEdgesMatchesBuilderRoundTrip: the direct CSR rebuild must
// produce exactly the graph a Builder would, including sorted adjacency.
func TestFilterEdgesMatchesBuilderRoundTrip(t *testing.T) {
	g := randomTestGraph(t, 60, 500, 2)
	rng := rand.New(rand.NewSource(3))
	drop := make(map[[2]int]bool)
	for _, e := range g.Edges() {
		if rng.Intn(3) == 0 {
			drop[e] = true
		}
	}
	fast := g.FilterEdges(func(_, u, v int) bool { return !drop[[2]int{u, v}] })

	b := NewBuilder(g.Name(), g.N())
	for v := 0; v < g.N(); v++ {
		if g.HasLoop(v) {
			b.AddEdge(v, v)
		}
	}
	for _, e := range g.Edges() {
		if !drop[e] {
			b.AddEdge(e[0], e[1])
		}
	}
	sameGraph(t, fast, b.Build())
}

// TestFilterEdgesScratchReuse: repeated filtering through one scratch must
// give the same result as fresh filtering, for shrinking and growing kept
// sets alike.
func TestFilterEdgesScratchReuse(t *testing.T) {
	g := randomTestGraph(t, 40, 250, 4)
	edges := g.Edges()
	var s FilterScratch
	for _, k := range []int{len(edges), 3, len(edges) / 2, 0, len(edges) - 1} {
		kept := make(map[[2]int]bool, k)
		for _, e := range edges[:k] {
			kept[e] = true
		}
		keep := func(_, u, v int) bool { return kept[[2]int{u, v}] }
		sameGraph(t, g.FilterEdgesScratch(&s, keep), g.FilterEdges(keep))
	}
}

// TestFilterEdgesChannelArgument: the c passed to keep must be the channel
// id of the u→v arc.
func TestFilterEdgesChannelArgument(t *testing.T) {
	g := randomTestGraph(t, 30, 120, 5)
	calls := 0
	g.FilterEdges(func(c, u, v int) bool {
		calls++
		if u >= v {
			t.Fatalf("keep called with u=%d >= v=%d", u, v)
		}
		if want := g.ChannelID(u, v); c != want {
			t.Fatalf("keep channel %d for (%d,%d), want %d", c, u, v, want)
		}
		return true
	})
	if calls != g.M() {
		t.Fatalf("keep called %d times, want M=%d", calls, g.M())
	}
}
