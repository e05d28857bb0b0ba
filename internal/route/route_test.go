package route

import (
	"math/rand"
	"slices"
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

func TestTableRouting(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	g := ps.G
	tab := NewTable(g, AllMinPaths)
	rng := rand.New(rand.NewSource(1))
	for src := 0; src < g.N(); src += 7 {
		for dst := 0; dst < g.N(); dst += 5 {
			path := Path(tab, src, dst, rng)
			if src == dst {
				if path != nil {
					t.Fatalf("self path should be nil")
				}
				continue
			}
			if !PathValid(g, path) {
				t.Fatalf("invalid path %v", path)
			}
			if len(path)-1 != tab.Dist(src, dst) {
				t.Fatalf("path length %d != dist %d", len(path)-1, tab.Dist(src, dst))
			}
			if path[0] != src || path[len(path)-1] != dst {
				t.Fatalf("path endpoints wrong")
			}
		}
	}
}

// referenceNextHopPath is the oracle for Table.AppendPath: a reservoir
// scan over all neighbors with a distance lookup per step (SinglePath: the
// first minimal neighbor). The mask table must consume the RNG identically
// and produce byte-identical paths.
func referenceNextHopPath(tab *Table, buf []int, src, dst int, rng *rand.Rand) []int {
	if src == dst {
		return buf
	}
	g := tab.g
	n := g.N()
	if tab.Dist(src, dst) < 0 {
		return buf
	}
	buf = append(buf, src)
	cur := src
	for cur != dst {
		d := tab.dist[cur*n+dst]
		var pick int32 = -1
		count := 0
		for _, w := range g.Neighbors(cur) {
			if tab.dist[int(w)*n+dst] == d-1 {
				count++
				if tab.mode == SinglePath {
					pick = w
					break
				}
				if rng.Intn(count) == 0 {
					pick = w
				}
			}
		}
		cur = int(pick)
		buf = append(buf, cur)
	}
	return buf
}

// assertMatchesReference routes the ordered pairs of every third source
// through AppendPath and the oracle on twin RNG streams and requires equal paths,
// each ending at dst, and an equal RNG position afterwards.
func assertMatchesReference(t *testing.T, tab *Table) {
	t.Helper()
	g := tab.g
	rngA := rand.New(rand.NewSource(42))
	rngB := rand.New(rand.NewSource(42))
	bufA, bufB := []int{-7}, []int{-7} // a non-empty prefix AppendPath must leave alone
	for src := 0; src < g.N(); src += 3 {
		for dst := 0; dst < g.N(); dst++ {
			bufA = tab.AppendPath(bufA[:1], src, dst, rngA)
			bufB = referenceNextHopPath(tab, bufB[:1], src, dst, rngB)
			if !slices.Equal(bufA, bufB) {
				t.Fatalf("%s mode %d %d->%d: path %v != reference %v", g.Name(), tab.mode, src, dst, bufA[1:], bufB[1:])
			}
			if reachable := src != dst && tab.Dist(src, dst) > 0; reachable != (len(bufA) > 1) || reachable && bufA[len(bufA)-1] != dst {
				t.Fatalf("%s mode %d %d->%d: path %v, dist %d", g.Name(), tab.mode, src, dst, bufA[1:], tab.Dist(src, dst))
			}
		}
	}
	if rngA.Int63() != rngB.Int63() {
		t.Fatalf("%s mode %d: RNG streams diverged", g.Name(), tab.mode)
	}
}

func TestTableMatchesNeighborScan(t *testing.T) {
	star := graph.NewBuilder("star70", 71) // hub degree 70: a 9-byte entry
	for leaf := 1; leaf <= 70; leaf++ {
		star.AddEdge(0, leaf)
	}
	k66 := graph.NewBuilder("k66", 66) // degree 65 everywhere: the one set bit lands in every byte of a 9-byte entry
	for u := 0; u < 66; u++ {
		for v := u + 1; v < 66; v++ {
			k66.AddEdge(u, v)
		}
	}
	split := graph.NewBuilder("two-cycles+isolated", 11) // C4, C6 and a lone vertex
	for i := 0; i < 4; i++ {
		split.AddEdge(i, (i+1)%4)
	}
	for i := 0; i < 6; i++ {
		split.AddEdge(4+i, 4+(i+1)%6)
	}
	for _, g := range []*graph.Graph{
		// Every table-routed -small spec of internal/sim, then ft-small
		// (degree 2p at the aggregation level) and PolarStar.
		must(topo.NewBundlefly(5, 2)).G,
		must(topo.NewDragonfly(6, 3)).G,
		must(topo.NewLPS(13, 5)).G,
		must(topo.NewMegafly(3, 6)).G,
		must(topo.NewER(7)).G,
		must(topo.NewMMS(5)).G,
		must(topo.NewFatTree(5)).G,
		topo.MustNewPolarStar(3, 3, topo.KindIQ).G,
		star.Build(),
		k66.Build(),
		split.Build(),
		graph.NewBuilder("single", 1).Build(),
	} {
		for _, mode := range []TableMode{AllMinPaths, SinglePath} {
			assertMatchesReference(t, NewTable(g, mode))
		}
	}
}

func TestTableSinglePathDeterministic(t *testing.T) {
	df := must(topo.NewDragonfly(4, 2))
	tab := NewTable(df.G, SinglePath)
	rng := rand.New(rand.NewSource(1))
	p1 := Path(tab, 0, df.G.N()-1, rng)
	p2 := Path(tab, 0, df.G.N()-1, rng)
	if len(p1) != len(p2) {
		t.Fatal("single path lengths differ")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("single-path mode is not deterministic")
		}
	}
}

// TestPolarStarAnalyticMinimal is the central routing correctness test:
// on full PolarStar instances of all three supernode kinds, the analytic
// §9.2 router must return a VALID and MINIMAL path for every ordered
// vertex pair, matching BFS ground truth exactly.
func TestPolarStarAnalyticMinimal(t *testing.T) {
	cases := []struct {
		q, d int
		kind topo.SupernodeKind
	}{
		{3, 3, topo.KindIQ},
		{3, 4, topo.KindIQ},
		{4, 3, topo.KindIQ},
		{5, 4, topo.KindIQ},
		{3, 2, topo.KindPaley},
		{4, 2, topo.KindPaley},
		{5, 4, topo.KindPaley},
		{3, 3, topo.KindBDF},
		{4, 4, topo.KindBDF},
		{3, 2, topo.KindComplete},
	}
	for _, c := range cases {
		ps := topo.MustNewPolarStar(c.q, c.d, c.kind)
		r := NewPolarStar(ps)
		truth := NewTable(ps.G, SinglePath)
		n := ps.G.N()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				path := Path(r, src, dst, nil)
				want := truth.Dist(src, dst)
				if src == dst {
					if path != nil {
						t.Fatalf("%v: self path not nil", ps.G)
					}
					continue
				}
				if !PathValid(ps.G, path) {
					t.Fatalf("%v: invalid analytic path %v (src=%d dst=%d)", ps.G, path, src, dst)
				}
				if path[0] != src || path[len(path)-1] != dst {
					t.Fatalf("%v: wrong endpoints %v", ps.G, path)
				}
				if got := len(path) - 1; got != want {
					t.Fatalf("%v: src=%d dst=%d analytic length %d != BFS %d (path %v)",
						ps.G, src, dst, got, want, path)
				}
			}
		}
	}
}

func TestPolarStarAnalyticLargerSpotCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The Table 3 configuration, sampled pairs.
	ps := topo.MustNewPolarStar(11, 3, topo.KindIQ)
	r := NewPolarStar(ps)
	truth := NewTable(ps.G, SinglePath)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		src, dst := rng.Intn(ps.G.N()), rng.Intn(ps.G.N())
		path := Path(r, src, dst, nil)
		if src == dst {
			continue
		}
		if !PathValid(ps.G, path) || len(path)-1 != truth.Dist(src, dst) {
			t.Fatalf("mismatch at src=%d dst=%d: %v (want dist %d)", src, dst, path, truth.Dist(src, dst))
		}
	}
}

func TestHyperXRouting(t *testing.T) {
	hx := must(topo.NewHyperX(4, 5, 3))
	r := NewHyperX(hx)
	truth := NewTable(hx.G, SinglePath)
	rng := rand.New(rand.NewSource(2))
	for src := 0; src < hx.G.N(); src += 3 {
		for dst := 0; dst < hx.G.N(); dst += 2 {
			if src == dst {
				continue
			}
			path := Path(r, src, dst, rng)
			if !PathValid(hx.G, path) {
				t.Fatalf("invalid path %v", path)
			}
			if len(path)-1 != truth.Dist(src, dst) || r.Dist(src, dst) != truth.Dist(src, dst) {
				t.Fatalf("non-minimal: %v (want %d)", path, truth.Dist(src, dst))
			}
		}
	}
}

func TestHyperXPathDiversity(t *testing.T) {
	hx := must(topo.NewHyperX(3, 3, 3))
	r := NewHyperX(hx)
	rng := rand.New(rand.NewSource(3))
	src, dst := 0, 1+3+9 // (0,0,0) and (1,1,1): ids are mixed-radix coordinates
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		path := Path(r, src, dst, rng)
		seen[path[1]] = true
	}
	if len(seen) != 3 {
		t.Errorf("expected 3 distinct first hops (dimension orders), got %d", len(seen))
	}
}

func TestFatTreeRouting(t *testing.T) {
	ft := must(topo.NewFatTree(4))
	r := NewFatTree(ft)
	truth := NewTable(ft.G, SinglePath)
	rng := rand.New(rand.NewSource(4))
	leaves := ft.LeafRouters()
	for _, src := range leaves {
		for _, dst := range leaves {
			if src == dst {
				continue
			}
			path := Path(r, src, dst, rng)
			if !PathValid(ft.G, path) {
				t.Fatalf("invalid fat-tree path %v", path)
			}
			if len(path)-1 != truth.Dist(src, dst) {
				t.Fatalf("non-minimal fat-tree path %v (want %d)", path, truth.Dist(src, dst))
			}
		}
	}
}

func TestDragonflyAndMegaflyRouting(t *testing.T) {
	df := must(topo.NewDragonfly(4, 2))
	rdf := NewDragonfly(df)
	mf := must(topo.NewMegafly(2, 4))
	rmf := NewMegafly(mf)
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name string
		e    Engine
		g    interface{ N() int }
	}{{"dragonfly", rdf, df.G}, {"megafly", rmf, mf.G}} {
		n := tc.g.N()
		for i := 0; i < 500; i++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			path := Path(tc.e, src, dst, rng)
			if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
				t.Fatalf("%s: bad path %v", tc.name, path)
			}
			if len(path)-1 != tc.e.Dist(src, dst) {
				t.Fatalf("%s: non-minimal path", tc.name)
			}
		}
	}
	// Dragonfly diameter-3 bound on minimal paths.
	for i := 0; i < 300; i++ {
		src, dst := rng.Intn(df.G.N()), rng.Intn(df.G.N())
		if d := rdf.Dist(src, dst); d > 3 {
			t.Fatalf("dragonfly minimal distance %d > 3", d)
		}
	}
}

func TestValiantCandidates(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	min := NewPolarStar(ps)
	v := NewValiant(min, ps.G.N(), 4)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		src, dst := rng.Intn(ps.G.N()), rng.Intn(ps.G.N())
		if src == dst {
			continue
		}
		cands := v.Candidates(src, dst, rng)
		if len(cands) != 5 {
			t.Fatalf("expected 5 candidates, got %d", len(cands))
		}
		for ci, path := range cands {
			if !PathValid(ps.G, path) {
				t.Fatalf("candidate %d invalid: %v", ci, path)
			}
			if path[0] != src || path[len(path)-1] != dst {
				t.Fatalf("candidate endpoints wrong: %v", path)
			}
			if ci == 0 && len(path)-1 > 3 {
				t.Fatalf("minimal candidate too long: %v", path)
			}
			if len(path)-1 > 6 {
				t.Fatalf("valiant candidate exceeds 6 hops: %v", path)
			}
		}
	}
}

func TestValiantViaDegenerateIntermediate(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	v := NewValiant(NewPolarStar(ps), ps.G.N(), 4)
	p := v.Via(0, 0, 5, nil)
	if len(p) == 0 || p[0] != 0 || p[len(p)-1] != 5 {
		t.Errorf("degenerate via failed: %v", p)
	}
}

// newCycleBuilder returns the cycle graph C_n (storage tests helper).
func newCycleBuilder(n int) *graph.Graph {
	b := graph.NewBuilder("cycle", n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	return b.Build()
}

// must returns v and panics on err; test set-up here only builds valid
// instances.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
