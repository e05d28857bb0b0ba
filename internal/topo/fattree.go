package topo

import (
	"fmt"

	"polarstar/internal/graph"
)

// FatTree is the 3-level folded-Clos fat-tree used by BookSim (§9.1):
// three layers of p² routers. Level-0 (leaf) routers host p endpoints
// each (p³ endpoints total); level-2 routers use only half the radix.
//
// Vertex numbering: level·p² + index, with level-0 index j decomposed as
// (group, pos) = (j/p, j%p), level-1 index as (group, k) and level-2
// index as (k, m).
type FatTree struct {
	P int // half-radix: endpoints per leaf, up-links per router
	G *graph.Graph
}

// NewFatTree builds the 3-level fat-tree with half-radix p.
func NewFatTree(p int) (*FatTree, error) {
	if p < 1 {
		return nil, fmt.Errorf("topo: FatTree needs p >= 1, got %d", p)
	}
	n := 3 * p * p
	b := graph.NewBuilder(fmt.Sprintf("FatTree(p=%d)", p), n)
	l0 := func(g, i int) int { return g*p + i }
	l1 := func(g, k int) int { return p*p + g*p + k }
	l2 := func(k, m int) int { return 2*p*p + k*p + m }
	for g := 0; g < p; g++ {
		for i := 0; i < p; i++ {
			for k := 0; k < p; k++ {
				b.AddEdge(l0(g, i), l1(g, k))
			}
		}
		for k := 0; k < p; k++ {
			for m := 0; m < p; m++ {
				b.AddEdge(l1(g, k), l2(k, m))
			}
		}
	}
	return &FatTree{P: p, G: b.Build()}, nil
}

// Level returns the layer (0 leaf, 1 middle, 2 top) of router v.
func (ft *FatTree) Level(v int) int { return v / (ft.P * ft.P) }

// LeafRouters returns the level-0 routers, which host the endpoints.
func (ft *FatTree) LeafRouters() []int {
	out := make([]int, ft.P*ft.P)
	for i := range out {
		out[i] = i
	}
	return out
}

// NumGroups returns the number of level-0 groups (pods), p.
func (ft *FatTree) NumGroups() int { return ft.P }

// GroupOf returns the pod of a leaf router, or its position group for
// upper layers.
func (ft *FatTree) GroupOf(v int) int { return (v % (ft.P * ft.P)) / ft.P }

// Megafly (Flajslik et al. / Dragonfly+) is the indirect two-level
// baseline: g = ρ·(a/2) + 1 groups; each group is a complete bipartite
// graph between a/2 leaf routers (hosting endpoints) and a/2 spine
// routers carrying ρ global links each; one global link per group pair.
type Megafly struct {
	Rho int // global links per spine router
	A   int // routers per group (half leaves, half spines)
	G   *graph.Graph
}

// NewMegafly builds the maximum-size Megafly for the given spine global
// arity ρ and group size a (a even).
func NewMegafly(rho, a int) (*Megafly, error) {
	if rho < 1 || a < 2 || a%2 != 0 {
		return nil, fmt.Errorf("topo: Megafly needs rho >= 1 and even a >= 2, got rho=%d a=%d", rho, a)
	}
	half := a / 2
	g := rho*half + 1
	n := g * a
	b := graph.NewBuilder(fmt.Sprintf("Megafly(rho=%d,a=%d)", rho, a), n)
	leaf := func(grp, i int) int { return grp*a + i }
	spine := func(grp, j int) int { return grp*a + half + j }
	for grp := 0; grp < g; grp++ {
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				b.AddEdge(leaf(grp, i), spine(grp, j))
			}
		}
		// Global links with the same relative arrangement as Dragonfly.
		for s := 0; s < rho*half; s++ {
			tgt := (grp + s + 1) % g
			tgtSlot := rho*half - 1 - s
			if grp < tgt {
				b.AddEdge(spine(grp, s/rho), spine(tgt, tgtSlot/rho))
			}
		}
	}
	return &Megafly{Rho: rho, A: a, G: b.Build()}, nil
}

// NumGroups returns ρ·a/2 + 1.
func (mf *Megafly) NumGroups() int { return mf.Rho*mf.A/2 + 1 }

// GroupOf returns the group of router v.
func (mf *Megafly) GroupOf(v int) int { return v / mf.A }

// IsLeaf reports whether router v is a leaf (endpoint-hosting) router.
func (mf *Megafly) IsLeaf(v int) bool { return v%mf.A < mf.A/2 }

// LeafRouters returns the endpoint-hosting routers.
func (mf *Megafly) LeafRouters() []int {
	var out []int
	for v := 0; v < mf.G.N(); v++ {
		if mf.IsLeaf(v) {
			out = append(out, v)
		}
	}
	return out
}
