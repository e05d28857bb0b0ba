package topo

import (
	"fmt"

	"polarstar/internal/graph"
)

// Dragonfly (Kim et al., ISCA 2008) in its canonical maximum
// configuration: g = a·h + 1 fully-connected groups of a routers; every
// router has h global ports and exactly one global link joins each group
// pair. Diameter 3 (local–global–local).
type Dragonfly struct {
	A int // routers per group
	H int // global links per router
	G *graph.Graph
}

// NewDragonfly builds the maximum-size Dragonfly for group size a and h
// global ports per router.
func NewDragonfly(a, h int) (*Dragonfly, error) {
	if a < 1 || h < 1 {
		return nil, fmt.Errorf("topo: Dragonfly needs a,h >= 1, got a=%d h=%d", a, h)
	}
	g := a*h + 1
	n := g * a
	b := graph.NewBuilder(fmt.Sprintf("Dragonfly(a=%d,h=%d)", a, h), n)
	id := func(grp, r int) int { return grp*a + r }
	// Local links: complete graph within each group.
	for grp := 0; grp < g; grp++ {
		for i := 0; i < a; i++ {
			for j := i + 1; j < a; j++ {
				b.AddEdge(id(grp, i), id(grp, j))
			}
		}
	}
	// Global links, relative arrangement: group grp's global slot s
	// (s in [0, a·h)) connects to group (grp + s + 1) mod g, which sees
	// the link on its slot g-2-s. Slot s belongs to router s/h.
	for grp := 0; grp < g; grp++ {
		for s := 0; s < a*h; s++ {
			tgt := (grp + s + 1) % g
			tgtSlot := a*h - 1 - s
			if grp < tgt {
				b.AddEdge(id(grp, s/h), id(tgt, tgtSlot/h))
			}
		}
	}
	return &Dragonfly{A: a, H: h, G: b.Build()}, nil
}

// NumGroups returns a·h + 1.
func (df *Dragonfly) NumGroups() int { return df.A*df.H + 1 }

// GroupOf returns the group of router v.
func (df *Dragonfly) GroupOf(v int) int { return v / df.A }

// DragonflyOrder returns a·(a·h+1).
func DragonflyOrder(a, h int) int {
	if a < 1 || h < 1 {
		return 0
	}
	return a * (a*h + 1)
}

// HyperX is the all-to-all generalized hypercube (Ahn et al., SC 2009):
// vertices are coordinate tuples; two vertices are adjacent iff they
// differ in exactly one coordinate. The paper's baseline is the 3-D
// 9×9×8 instance.
type HyperX struct {
	Dims []int
	G    *graph.Graph
}

// NewHyperX builds the HyperX with the given per-dimension sizes.
func NewHyperX(dims ...int) (*HyperX, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("topo: HyperX needs at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d < 2 {
			return nil, fmt.Errorf("topo: HyperX dimension %d < 2", d)
		}
		n *= d
	}
	hx := &HyperX{Dims: append([]int{}, dims...)}
	b := graph.NewBuilder(fmt.Sprintf("HyperX%v", dims), n)
	for v := 0; v < n; v++ {
		coords := hx.coordsOf(v)
		stride := 1
		for dim, size := range dims {
			for c := coords[dim] + 1; c < size; c++ {
				b.AddEdge(v, v+(c-coords[dim])*stride)
			}
			stride *= size
		}
	}
	hx.G = b.Build()
	return hx, nil
}

func (hx *HyperX) coordsOf(v int) []int {
	coords := make([]int, len(hx.Dims))
	for i, d := range hx.Dims {
		coords[i] = v % d
		v /= d
	}
	return coords
}

// NumGroups groups HyperX routers by their last coordinate plane.
func (hx *HyperX) NumGroups() int { return hx.Dims[len(hx.Dims)-1] }

// GroupOf returns the last-coordinate plane of v.
func (hx *HyperX) GroupOf(v int) int {
	n := hx.G.N() / hx.Dims[len(hx.Dims)-1]
	return v / n
}
