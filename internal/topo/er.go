// Package topo constructs every network topology used in the PolarStar
// paper: the PolarStar family itself (star products of Erdős–Rényi
// polarity graphs with Inductive-Quad or Paley supernodes) and all
// baselines it is evaluated against (Bundlefly, SlimFly/MMS, Dragonfly,
// HyperX, Fat-tree, Megafly, Kautz, Jellyfish, LPS Ramanujan graphs).
//
// All constructions are deterministic: the same parameters always produce
// the same vertex numbering and edge set, which keeps simulations and
// tests reproducible.
package topo

import (
	"fmt"
	"sync"

	"polarstar/internal/gf"
	"polarstar/internal/graph"
)

// ER is the Erdős–Rényi (Brown) polarity graph ER_q over GF(q): the
// structure graph of PolarStar (§6.1 of the paper).
//
// Vertices are the q²+q+1 points of the projective plane PG(2,q) in
// left-normalized form; two distinct points are adjacent iff their dot
// product vanishes. Self-orthogonal points (the q+1 quadric vertices)
// carry a self-loop annotation: the loop is not a usable link, but
// Property R walks and the star product both exploit it.
type ER struct {
	Q     int
	Field *gf.Field
	G     *graph.Graph

	vecs   [][3]int  // vertex id -> left-normalized coordinates
	cnOnce sync.Once // fills cn on the first CommonNeighbor call
	cn     []int32   // dense CommonNeighbor(u,v) table, n×n row-major
}

// NewER constructs ER_q. q must be a prime power.
func NewER(q int) (*ER, error) {
	f, err := gf.New(q)
	if err != nil {
		return nil, fmt.Errorf("topo: ER_%d: %w", q, err)
	}
	n := q*q + q + 1
	e := &ER{
		Q:     q,
		Field: f,
		vecs:  make([][3]int, 0, n),
	}
	// Left-normalized projective points: (1,a,b), (0,1,a), (0,0,1).
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			e.addVec([3]int{1, a, b})
		}
	}
	for a := 0; a < q; a++ {
		e.addVec([3]int{0, 1, a})
	}
	e.addVec([3]int{0, 0, 1})

	b := graph.NewBuilder(fmt.Sprintf("ER%d", q), n)
	for u := 0; u < n; u++ {
		for v := u; v < n; v++ {
			if e.dot(u, v) == 0 {
				b.AddEdge(u, v) // u == v records the quadric self-loop
			}
		}
	}
	e.G = b.Build()
	return e, nil
}

func (e *ER) addVec(v [3]int) {
	e.vecs = append(e.vecs, v)
}

func (e *ER) dot(u, v int) int {
	a, b := e.vecs[u], e.vecs[v]
	return e.Field.Dot(a[:], b[:])
}

// N returns the order q²+q+1.
func (e *ER) N() int { return len(e.vecs) }

// Degree returns the nominal degree q+1 (quadric vertices have network
// degree q plus the loop).
func (e *ER) Degree() int { return e.Q + 1 }

// VertexOf returns the vertex id of a (not necessarily normalized)
// non-zero coordinate vector. Ids follow the construction order of
// NewER, so the left-normalized form indexes in closed form — the §9.2
// analytic router resolves one cross product per 2-hop query, and this
// lookup is on that hot path.
func (e *ER) VertexOf(vec [3]int) (int, bool) {
	norm, ok := e.normalize(vec)
	if !ok {
		return 0, false
	}
	switch {
	case norm[0] == 1: // (1,a,b) -> a·q+b
		return norm[1]*e.Q + norm[2], true
	case norm[1] == 1: // (0,1,a) -> q²+a
		return e.Q*e.Q + norm[2], true
	default: // (0,0,1)
		return e.Q*e.Q + e.Q, true
	}
}

// normalize scales vec so its leftmost non-zero entry is 1.
func (e *ER) normalize(vec [3]int) ([3]int, bool) {
	f := e.Field
	for i := 0; i < 3; i++ {
		if vec[i] != 0 {
			inv := f.Inv(vec[i])
			var out [3]int
			for j := 0; j < 3; j++ {
				out[j] = f.Mul(vec[j], inv)
			}
			return out, true
		}
	}
	return [3]int{}, false
}

// IsQuadric reports whether vertex v is self-orthogonal.
func (e *ER) IsQuadric(v int) bool { return e.G.HasLoop(v) }

// CommonNeighbor returns a vertex adjacent (or loop-adjacent) to both u
// and v: the cross product u × v, which is orthogonal to both (§6.1.2).
// For u == v it returns a neighbor of u when u is not quadric, or u
// itself when it is (the self-loop closes the walk).
//
// The returned vertex w satisfies dot(u,w) == 0 and dot(w,v) == 0, so the
// walk u–w–v exists in ER_q when self-loops are admitted as walk steps.
// This is the analytic 2-hop oracle used by PolarStar minpath routing.
//
// PolarStar minpath routing calls it per routed packet, and the
// cross-product arithmetic (three GF multiplies per coordinate plus a
// normalization) dominated routing profiles, so for routable sizes
// (n ≤ 1024) the first call fills the whole n×n answer table: ~q⁴
// int32s, 1.2 MB and about 14 ms for the paper-scale ER₂₃, which would
// be 40 % of NewPolarStar(23,11) if paid at construction. Structural
// tools never route and design-space scans construct much larger
// quotients only to count vertices; neither pays for it.
func (e *ER) CommonNeighbor(u, v int) int {
	n := len(e.vecs)
	if n > 1024 {
		return e.commonNeighborSlow(u, v)
	}
	e.cnOnce.Do(e.fillCommonNeighbors)
	return int(e.cn[u*n+v])
}

func (e *ER) fillCommonNeighbors() {
	n := len(e.vecs)
	e.cn = make([]int32, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			e.cn[u*n+v] = int32(e.commonNeighborSlow(u, v))
		}
	}
}

// commonNeighborSlow is the analytic computation behind CommonNeighbor,
// run once per pair on first use to fill the dense table.
func (e *ER) commonNeighborSlow(u, v int) int {
	f := e.Field
	a, b := e.vecs[u], e.vecs[v]
	if u == v {
		if e.IsQuadric(u) {
			return u
		}
		// Any neighbor works: u–w–u is a valid length-2 walk.
		return int(e.G.Neighbors(u)[0])
	}
	cross := [3]int{
		f.Sub(f.Mul(a[1], b[2]), f.Mul(a[2], b[1])),
		f.Sub(f.Mul(a[2], b[0]), f.Mul(a[0], b[2])),
		f.Sub(f.Mul(a[0], b[1]), f.Mul(a[1], b[0])),
	}
	if cross == ([3]int{}) {
		// u and v are projectively equal; cannot happen for distinct
		// normalized vertices.
		panic("topo: zero cross product for distinct ER vertices")
	}
	w, ok := e.VertexOf(cross)
	if !ok {
		panic("topo: cross product outside vertex set")
	}
	return w
}
