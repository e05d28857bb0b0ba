package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// path returns the path graph P_n.
func path(n int) *Graph {
	b := NewBuilder("path", n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(i, i+1)
	}
	return b.Build()
}

// cycle returns the cycle graph C_n.
func cycle(n int) *Graph {
	b := NewBuilder("cycle", n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// complete returns K_n.
func complete(n int) *Graph {
	b := NewBuilder("complete", n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b.Build()
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder("g", 4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(2, 2)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
	if g.NumLoops() != 1 || !g.HasLoop(2) || g.HasLoop(0) {
		t.Errorf("loop bookkeeping wrong: loops=%d", g.NumLoops())
	}
	if g.Degree(2) != 0 {
		t.Errorf("self-loop contributed to degree: %d", g.Degree(2))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) || g.HasEdge(2, 2) {
		t.Error("HasEdge wrong")
	}
}

// mapBuild is the hash-set Builder that the sorted key slice replaced,
// kept as its oracle: edges deduplicated through a map, CSR filled in
// map order, then every neighbour list sorted.
func mapBuild(name string, n int, edges [][2]int) *Graph {
	set := map[int64]struct{}{}
	loops := make([]bool, n)
	nLoops := 0
	for _, e := range edges {
		u, v := min(e[0], e[1]), max(e[0], e[1])
		if u == v {
			if !loops[u] {
				nLoops++
			}
			loops[u] = true
			continue
		}
		set[int64(u)<<32|int64(v)] = struct{}{}
	}
	off := make([]int32, n+1)
	for k := range set {
		off[k>>32+1]++
		off[k&0xffffffff+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	nbr := make([]int32, off[n])
	fill := slices.Clone(off[:n])
	for k := range set {
		u, v := k>>32, k&0xffffffff
		nbr[fill[u]], nbr[fill[v]] = int32(v), int32(u)
		fill[u]++
		fill[v]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(nbr[off[v]:off[v+1]])
	}
	g := &Graph{name: name, n: n, off: off, nbr: nbr, loops: loops, nEdges: len(set), nLoops: nLoops}
	g.buildAdjBitmap()
	return g
}

// TestBuilderMatchesMapBuild: the key-slice Builder produces the map
// oracle's graph — CSR, loops, counts and adjacency bitmap — whatever the
// insertion order, duplicates, reversed pairs and loops included.
func TestBuilderMatchesMapBuild(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		var edges [][2]int
		for i := rng.Intn(4 * n); i > 0; i-- {
			e := [2]int{rng.Intn(n), rng.Intn(n)}
			if rng.Intn(8) == 0 {
				e[1] = e[0] // loop
			}
			edges = append(edges, e)
			if rng.Intn(4) == 0 {
				edges = append(edges, [2]int{e[1], e[0]}) // reversed duplicate
			}
		}
		want := mapBuild("g", n, edges)
		for pass := 0; pass < 2; pass++ {
			b := NewBuilder("g", n)
			for _, e := range edges {
				b.AddEdge(e[0], e[1])
			}
			if got := b.Build(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d pass %d: Build %v differs from the map oracle %v", seed, pass, got, want)
			}
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		}
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder("g", 2).AddEdge(0, 2)
}

func TestDegreesAndRegularity(t *testing.T) {
	k5 := complete(5)
	if k5.MaxDegree() != 4 || k5.MinDegree() != 4 || !k5.IsRegular() {
		t.Error("K5 should be 4-regular")
	}
	p4 := path(4)
	if p4.MaxDegree() != 2 || p4.MinDegree() != 1 || p4.IsRegular() {
		t.Error("P4 degree stats wrong")
	}
}

func TestBFSDistances(t *testing.T) {
	g := path(5)
	dist := g.BFSDistances(0, nil, nil)
	for i, want := range []int32{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	// Disconnected case.
	b := NewBuilder("g", 3)
	b.AddEdge(0, 1)
	g2 := b.Build()
	dist2 := g2.BFSDistances(0, nil, nil)
	if dist2[2] != Unreachable {
		t.Errorf("dist[2] = %d, want Unreachable", dist2[2])
	}
}

func TestAllPairsStats(t *testing.T) {
	cases := []struct {
		g       *Graph
		diam    int32
		avg     float64
		connect bool
	}{
		{cycle(6), 3, (1*2 + 2*2 + 3*1) * 6 / float64(6*5), true}, // per-vertex distances 1,1,2,2,3
		{complete(7), 1, 1, true},
		{path(4), 3, (1*3*2 + 2*2*2 + 3*1*2) / float64(12), true},
	}
	for _, c := range cases {
		s := c.g.AllPairsStats()
		if s.Diameter != c.diam {
			t.Errorf("%v diameter = %d, want %d", c.g, s.Diameter, c.diam)
		}
		if s.Connected != c.connect {
			t.Errorf("%v connected = %v", c.g, s.Connected)
		}
		if diff := s.AvgPath - c.avg; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%v avg = %f, want %f", c.g, s.AvgPath, c.avg)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	b := NewBuilder("g", 4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	if g.Diameter() != Unreachable {
		t.Error("disconnected graph should report Unreachable diameter")
	}
	if g.IsConnected(nil) {
		t.Error("IsConnected wrong")
	}
}

func TestRemoveEdges(t *testing.T) {
	g := cycle(5)
	h := g.RemoveEdges([][2]int{{0, 1}, {3, 2}})
	if h.M() != 3 {
		t.Errorf("M = %d, want 3", h.M())
	}
	if h.HasEdge(0, 1) || h.HasEdge(2, 3) {
		t.Error("edges not removed")
	}
	if !h.HasEdge(1, 2) {
		t.Error("unrelated edge removed")
	}
	// Original untouched.
	if g.M() != 5 {
		t.Error("RemoveEdges mutated the receiver")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := complete(6)
	edges := g.Edges()
	if len(edges) != 15 {
		t.Fatalf("len(edges) = %d, want 15", len(edges))
	}
	b := NewBuilder("copy", 6)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	h := b.Build()
	if h.M() != g.M() {
		t.Error("edge round trip lost edges")
	}
}

func TestEdgeListIO(t *testing.T) {
	b := NewBuilder("demo", 5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 4)
	b.AddEdge(2, 2)
	g := b.Build()

	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "demo" || h.N() != 5 || h.M() != 2 || h.NumLoops() != 1 {
		t.Errorf("round trip mismatch: %v", h)
	}
	if !h.HasEdge(0, 1) || !h.HasEdge(1, 4) || !h.HasLoop(2) {
		t.Error("edge content mismatch after round trip")
	}
}

// TestReadEdgeListErrors: malformed outside bytes are errors, never
// panics or silently accepted lines.
func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{
		"",                         // empty input
		"0 1\n",                    // edge before header
		"# n 3\n0 5\n",             // id above n
		"# n 3\n-1 2\n",            // negative id
		"# n 2\n7 loop\n",          // loop on an id above n
		"# n 3\n0 1 junk\n",        // trailing token
		"# n 3\n0\n",               // one token
		"# n 3\nx 1\n",             // not an integer
		"# n -3\n",                 // negative vertex count
		"# n 3x\n",                 // vertex count with a suffix
		"# n 99999999999\n",        // vertex count above the cap
		"# n 3\n0 1\n# n 4\n1 3\n", // count redefined after an edge
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("ReadEdgeList(%q) panicked: %v", in, r)
				}
			}()
			if g, err := ReadEdgeList(bytes.NewBufferString(in)); err == nil {
				t.Errorf("ReadEdgeList(%q) = %v, want an error", in, g)
			}
		}()
	}
}

// TestBFSPropertyTriangleInequality: for random graphs, d(s,v) <= d(s,u)+1
// for every edge (u,v) — the defining property of BFS layering.
func TestBFSPropertyTriangleInequality(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(30)
		b := NewBuilder("rand", n)
		for i := 0; i < 3*n; i++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		g := b.Build()
		dist := g.BFSDistances(0, nil, nil)
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				du, dv := dist[u], dist[v]
				if du == Unreachable != (dv == Unreachable) {
					return false
				}
				if du != Unreachable && (dv > du+1 || du > dv+1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAllPairsMatchesSingleSource cross-checks the parallel aggregate
// against a serial recomputation.
func TestAllPairsMatchesSingleSource(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 60
	b := NewBuilder("rand", n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	g := b.Build()
	want := g.AllPairsStats()

	var diam int32
	var sum, pairs int64
	for s := 0; s < g.N(); s++ {
		dist := g.BFSDistances(s, nil, nil)
		for v, d := range dist {
			if v == s || d == Unreachable {
				continue
			}
			if d > diam {
				diam = d
			}
			sum += int64(d)
			pairs++
		}
	}
	if want.Diameter != diam || want.Pairs != pairs {
		t.Errorf("parallel stats (%d,%d) != serial (%d,%d)", want.Diameter, want.Pairs, diam, pairs)
	}
	avg := float64(sum) / float64(pairs)
	if diff := want.AvgPath - avg; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("avg mismatch: %f vs %f", want.AvgPath, avg)
	}
}
