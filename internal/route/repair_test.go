package route

import (
	"bytes"
	"math/rand"
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

// sameTables reports whether a and b hold the same distances and the same
// next-hop sets. A repaired table keeps the entry width of the graph it
// was built on while a rebuild sizes it for the degraded graph, so
// entries compare bytewise with the wider one's tail required empty.
func sameTables(a, b *Table) bool {
	if !bytes.Equal(a.dist, b.dist) {
		return false
	}
	if a.mb < b.mb {
		a, b = b, a
	}
	for i := 0; i < len(a.dist); i++ {
		ea, eb := a.masks[i*a.mb:][:a.mb], b.masks[i*b.mb:][:b.mb]
		if !bytes.Equal(ea[:b.mb], eb) || bytes.Count(ea[b.mb:], []byte{0}) != a.mb-b.mb {
			return false
		}
	}
	return true
}

// assertAvoids routes a sample of pairs through tab and fails if a path
// crosses one of the dropped edges.
func assertAvoids(t *testing.T, tab *Table, dropped map[[2]int]bool, rng *rand.Rand) {
	t.Helper()
	n := tab.g.N()
	var buf []int
	for i := 0; i < 4*n; i++ {
		buf = tab.AppendPath(buf[:0], rng.Intn(n), rng.Intn(n), rng)
		for h := 0; h+1 < len(buf); h++ {
			u, v := buf[h], buf[h+1]
			if u > v {
				u, v = v, u
			}
			if dropped[[2]int{u, v}] {
				t.Fatalf("path %v crosses dropped edge (%d,%d)", buf, u, v)
			}
		}
	}
}

// TestRepairMatchesRebuild is the property test behind DropEdge's
// contract: after every one of 200 random edge removals, and after every
// removal of a router-down sequence (all edges of one vertex, then of a
// second), the incrementally repaired table must equal — distances and
// masks — a from-scratch NewTable on the degraded graph, including once
// the removals disconnect the graph, and route around every dropped edge.
func TestRepairMatchesRebuild(t *testing.T) {
	topos := []struct {
		name string
		g    *graph.Graph
	}{
		{"ps-iq", topo.MustNewPolarStar(3, 3, topo.KindIQ).G},
		{"df", must(topo.NewDragonfly(4, 2)).G},
		{"hx", must(topo.NewHyperX(3, 3, 3)).G},
	}
	for _, tc := range topos {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(11))
			n := tc.g.N()
			var drops [][2]int
			for _, r := range []int{rng.Intn(n), rng.Intn(n)} {
				for _, w := range tc.g.Neighbors(r) {
					drops = append(drops, [2]int{r, int(w)})
				}
			}
			random := 200
			if m := tc.g.M(); random > m-1-len(drops) {
				random = m - 1 - len(drops)
			}
			for _, mode := range []TableMode{AllMinPaths, SinglePath} {
				cur := tc.g
				tab := NewTable(tc.g, mode).Clone() // repair in place, keep tc.g's table pristine
				dropped := map[[2]int]bool{}
				for i := 0; i < len(drops)+random; i++ {
					var e [2]int
					if i < len(drops) {
						e = drops[i] // may already be gone: the two routers can be adjacent
					} else {
						edges := cur.Edges()
						e = edges[rng.Intn(len(edges))]
					}
					tab.DropEdge(e[0], e[1])
					cur = cur.RemoveEdges([][2]int{e})
					if e[0] > e[1] {
						e[0], e[1] = e[1], e[0]
					}
					dropped[e] = true
					if !sameTables(tab, NewTable(cur, mode)) {
						t.Fatalf("mode %d removal %d (%v): repaired table differs from rebuild", mode, i, e)
					}
					if i%16 == 0 || i == len(drops)-1 {
						assertAvoids(t, tab, dropped, rng)
					}
				}
			}
		})
	}
}

// TestRepairDropMissingEdgeNoop pins that dropping an absent edge leaves
// the table untouched.
func TestRepairDropMissingEdgeNoop(t *testing.T) {
	g := topo.MustNewPolarStar(3, 3, topo.KindIQ).G
	tab := NewTable(g, AllMinPaths).Clone()
	e := g.Edges()[0]
	tab.DropEdge(e[0], e[1])
	tab.DropEdge(e[0], e[1]) // second drop: the edge is already gone
	cur := g.RemoveEdges([][2]int{e})
	if !sameTables(tab, NewTable(cur, AllMinPaths)) {
		t.Fatal("double DropEdge diverged from single removal")
	}
}
