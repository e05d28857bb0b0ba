package route

import (
	"errors"
	"testing"

	"polarstar/internal/topo"
)

func TestMultiPathErrors(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	eng := NewPolarStar(ps)
	if _, err := NewMultiPath(ps.G, eng, 0, 11, 1); !errors.Is(err, ErrTreeCount) {
		t.Errorf("lanes=0: err = %v, want ErrTreeCount", err)
	}
	if _, err := NewMultiPath(disconnectedGraph(t), nil, 2, 11, 1); !errors.Is(err, ErrDisconnected) {
		t.Errorf("disconnected: err = %v, want ErrDisconnected", err)
	}
}

func TestMultiPathTreePaths(t *testing.T) {
	ps := topo.MustNewPolarStar(4, 3, topo.KindIQ)
	g := ps.G
	eng := NewPolarStar(ps)
	mp, err := NewMultiPath(g, eng, 8, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mp.TreeLanes() < 3 {
		t.Fatalf("TreeLanes = %d, want >= 3 on radix-8 PolarStar", mp.TreeLanes())
	}
	n := g.N()
	for l := 0; l < mp.TreeLanes(); l++ {
		// Tree-edge set for membership checks.
		onTree := map[[2]int]bool{}
		for _, e := range mp.TreeEdges(l) {
			a, b := e[0], e[1]
			if a > b {
				a, b = b, a
			}
			onTree[[2]int{a, b}] = true
		}
		if len(onTree) != n-1 {
			t.Fatalf("lane %d: %d tree edges, want n-1 = %d", l, len(onTree), n-1)
		}
		covered := 0
		for s := 0; s < n; s += 3 {
			for d := 0; d < n; d += 5 {
				if s == d {
					continue
				}
				path := mp.AppendTreePath(nil, l, s, d, nil)
				if len(path) == 0 {
					continue // pair exceeds the lane's hop bound
				}
				covered++
				if path[0] != s || path[len(path)-1] != d {
					t.Fatalf("lane %d %d->%d: endpoints %v", l, s, d, path)
				}
				if len(path)-1 > mp.LaneMaxHops(l) {
					t.Fatalf("lane %d %d->%d: %d hops > bound %d", l, s, d, len(path)-1, mp.LaneMaxHops(l))
				}
				seen := map[int]bool{}
				for i, v := range path {
					if seen[v] {
						t.Fatalf("lane %d %d->%d: revisits %d", l, s, d, v)
					}
					seen[v] = true
					if i == 0 {
						continue
					}
					a, b := path[i-1], v
					if !g.HasEdge(a, b) {
						t.Fatalf("lane %d %d->%d: (%d,%d) not a graph edge", l, s, d, a, b)
					}
					if a > b {
						a, b = b, a
					}
					if !onTree[[2]int{a, b}] {
						t.Fatalf("lane %d %d->%d: (%d,%d) leaves the tree", l, s, d, a, b)
					}
				}
			}
		}
		if covered == 0 {
			t.Fatalf("lane %d covers no sampled pairs", l)
		}
	}
}

func TestMultiPathLiveFiltersTreeEdge(t *testing.T) {
	ps := topo.MustNewPolarStar(4, 3, topo.KindIQ)
	eng := NewPolarStar(ps)
	mp, err := NewMultiPath(ps.G, eng, 3, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the first tree edge of lane 0: every lane-0 path crossing it
	// must vanish, and each vanished pair must have crossed the dead edge.
	dead := mp.TreeEdges(0)[0]
	live := func(u, v int) bool {
		return !(u == dead[0] && v == dead[1]) && !(u == dead[1] && v == dead[0])
	}
	n := ps.G.N()
	lost := 0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d += 3 {
			if s == d {
				continue
			}
			before := mp.AppendTreePath(nil, 0, s, d, nil)
			after := mp.AppendTreePath(nil, 0, s, d, live)
			if len(before) == 0 {
				if len(after) != 0 {
					t.Fatalf("%d->%d: dead edge grew a path", s, d)
				}
				continue
			}
			crosses := false
			for i := 1; i < len(before); i++ {
				if !live(before[i-1], before[i]) {
					crosses = true
				}
			}
			if crosses {
				if len(after) != 0 {
					t.Fatalf("%d->%d: path survived its dead edge", s, d)
				}
				lost++
			} else if len(after) != len(before) {
				t.Fatalf("%d->%d: unaffected path changed", s, d)
			}
		}
	}
	if lost == 0 {
		t.Fatal("dead tree edge lost no sampled pairs; test samples too sparse")
	}
}

func TestMultiPathDelegatesToMin(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	eng := NewPolarStar(ps)
	mp, err := NewMultiPath(ps.G, eng, 2, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mp.min != Engine(eng) {
		t.Error("lane 0 is not the composed engine")
	}
	n := ps.G.N()
	for s := 0; s < n; s += 13 {
		for d := 0; d < n; d += 17 {
			if mp.Dist(s, d) != eng.Dist(s, d) {
				t.Fatalf("Dist(%d,%d) disagrees with min engine", s, d)
			}
		}
	}
}
