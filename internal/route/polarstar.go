package route

import (
	"fmt"
	"math/rand"

	"polarstar/internal/topo"
)

// PolarStar is the analytic minpath router of §9.2. It computes exact
// minimal paths from factor-graph knowledge only — the ER_q orthogonality
// oracle (cross products), the supernode adjacency and the bijection f —
// so its state is O(q² + d'²) instead of the O(N²) of product-wide
// routing tables. This is the storage argument of the paper: Spectralfly
// and Bundlefly need all-minpath tables for competitive performance,
// PolarStar does not.
//
// The router supports both supernode families: involutions (IQ, BDF,
// Property R*) and Paley (Property R1, where f² is an automorphism and
// arc orientation matters).
//
// All case analysis is written in append form over a caller-owned buffer
// (AppendPath), so routing a packet performs zero heap allocations.
type PolarStar struct {
	ps   *topo.PolarStar
	fInv []int
}

// NewPolarStar builds the analytic router for a PolarStar instance.
func NewPolarStar(ps *topo.PolarStar) *PolarStar {
	fInv := make([]int, len(ps.Super.F))
	for x, y := range ps.Super.F {
		fInv[y] = x
	}
	return &PolarStar{ps: ps, fInv: fInv}
}

// cross returns the supernode-local vertex reached when traversing the
// structure arc u→v carrying local coordinate z. The star product
// orients structure edges low-to-high, applying f forward.
func (r *PolarStar) cross(u, v, z int) int {
	if u < v {
		return r.ps.Super.F[z]
	}
	return r.fInv[z]
}

// crossInv returns the local coordinate that arrives at z after
// traversing u→v.
func (r *PolarStar) crossInv(u, v, z int) int {
	if u < v {
		return r.fInv[z]
	}
	return r.ps.Super.F[z]
}

// loopHops returns the local vertices reachable from z via the
// loop-induced intra-supernode edges of a quadric supernode — f(z) and
// f⁻¹(z), excluding fixed points — as a fixed-size array plus count, so
// the hot path never allocates.
func (r *PolarStar) loopHops(z int) (hops [2]int, n int) {
	f, fi := r.ps.Super.F[z], r.fInv[z]
	switch {
	case f == z:
		return hops, 0
	case f == fi:
		hops[0] = f
		return hops, 1
	default:
		hops[0], hops[1] = f, fi
		return hops, 2
	}
}

// node maps (structure vertex, local vertex) to the product vertex id.
func (r *PolarStar) node(x, xp int) int { return r.ps.VertexAt(x, xp) }

// Dist implements Engine. The path is built in a stack buffer: a minimal
// path has at most four routers (diameter 3).
func (r *PolarStar) Dist(src, dst int) int {
	var buf [4]int
	return len(r.AppendPath(buf[:0], src, dst, nil)) - 1
}

// IgnoresRNG implements RNGFree: the analytic path is a function of
// (src, dst) alone.
func (*PolarStar) IgnoresRNG() {}

// AppendPath implements Engine. The path is provably minimal; see the
// exhaustive cross-check against BFS ground truth in the tests.
func (r *PolarStar) AppendPath(buf []int, src, dst int, _ *rand.Rand) []int {
	if src == dst {
		return buf
	}
	x, xp := r.ps.GroupOf(src), r.ps.LocalOf(src)
	y, yp := r.ps.GroupOf(dst), r.ps.LocalOf(dst)
	switch {
	case x == y:
		return r.appendSameSupernode(buf, x, xp, yp)
	case r.ps.Structure.G.HasEdge(x, y):
		return r.appendAdjacent(buf, x, xp, y, yp)
	default:
		return r.appendDistant(buf, x, xp, y, yp)
	}
}

// appendSameSupernode handles source and destination in one supernode.
func (r *PolarStar) appendSameSupernode(buf []int, x, xp, yp int) []int {
	sup := r.ps.Super.G
	quadric := r.ps.Structure.IsQuadric(x)
	src, dst := r.node(x, xp), r.node(x, yp)

	// Distance 1: supernode edge, or quadric loop edge.
	if sup.HasEdge(xp, yp) {
		return append(buf, src, dst)
	}
	if quadric {
		lh, nl := r.loopHops(xp)
		for _, l := range lh[:nl] {
			if l == yp {
				return append(buf, src, dst)
			}
		}
	}
	// Distance 2, form 1: common supernode neighbor.
	for _, z := range sup.Neighbors(xp) {
		if sup.HasEdge(int(z), yp) {
			return append(buf, src, r.node(x, int(z)), dst)
		}
	}
	if quadric {
		// Distance 2, loop-mixed forms.
		lh, nl := r.loopHops(xp)
		for _, l := range lh[:nl] {
			if sup.HasEdge(l, yp) {
				return append(buf, src, r.node(x, l), dst)
			}
			lh2, nl2 := r.loopHops(l)
			for _, l2 := range lh2[:nl2] {
				if l2 == yp {
					return append(buf, src, r.node(x, l), dst)
				}
			}
		}
		for _, z := range sup.Neighbors(xp) {
			lh2, nl2 := r.loopHops(int(z))
			for _, l := range lh2[:nl2] {
				if l == yp {
					return append(buf, src, r.node(x, int(z)), dst)
				}
			}
		}
	}
	// Distance 3 (§9.2 via a neighboring supernode). For the involution
	// families, either y' = f(x') (alternating-path detour) or
	// (f(x'), f(y')) ∈ E'. For Paley, (g(x'), g(y')) ∈ E' for the arc
	// map g in both directions whenever (x', y') ∉ E'.
	f := r.ps.Super.F
	for _, wa := range r.ps.Structure.G.Neighbors(x) {
		a := int(wa)
		g1xp := r.cross(x, a, xp)
		g1yp := r.cross(x, a, yp)
		// Detour through supernode a using an intra edge (or, for the
		// y' = f(x') case, the f-pairing realized by a second structure
		// walk).
		if sup.HasEdge(g1xp, g1yp) {
			return append(buf, r.node(x, xp), r.node(a, g1xp), r.node(a, g1yp), r.node(x, yp))
		}
		if yp == f[xp] || yp == r.fInv[xp] {
			// Alternating path: (x,x') → (a, g1(x')) → (w, ·) → (x, y')
			// along a structure 2-walk a → w → x.
			w := r.ps.Structure.CommonNeighbor(a, x)
			mid := r.cross(a, w, g1xp)
			if w == a {
				// a is quadric: the middle hop is a loop edge at a.
				lh, nl := r.loopHops(g1xp)
				for _, l := range lh[:nl] {
					if r.cross(a, x, l) == yp {
						return append(buf, r.node(x, xp), r.node(a, g1xp), r.node(a, l), r.node(x, yp))
					}
				}
				continue
			}
			if w == x {
				continue // degenerate: would revisit the source supernode
			}
			if r.cross(w, x, mid) == yp {
				return append(buf, r.node(x, xp), r.node(a, g1xp), r.node(w, mid), r.node(x, yp))
			}
		}
	}
	panic(fmt.Sprintf("route: PolarStar same-supernode case fell through (x=%d x'=%d y'=%d)", x, xp, yp))
}

// appendAdjacent handles structure-adjacent supernodes; the distance is
// always 1 or 2 (Properties R*/R1 guarantee a 2-hop form).
func (r *PolarStar) appendAdjacent(buf []int, x, xp, y, yp int) []int {
	sup := r.ps.Super.G
	src, dst := r.node(x, xp), r.node(y, yp)
	g := r.cross(x, y, xp)
	// Distance 1.
	if g == yp {
		return append(buf, src, dst)
	}
	// Form 2: inter then intra.
	if sup.HasEdge(g, yp) {
		return append(buf, src, r.node(y, g), dst)
	}
	// Form 1: intra then inter.
	if z := r.crossInv(x, y, yp); sup.HasEdge(xp, z) {
		return append(buf, src, r.node(x, z), dst)
	}
	// Loop forms at quadric endpoints.
	if r.ps.Structure.IsQuadric(x) {
		lh, nl := r.loopHops(xp)
		for _, l := range lh[:nl] {
			if r.cross(x, y, l) == yp {
				return append(buf, src, r.node(x, l), dst)
			}
		}
	}
	if r.ps.Structure.IsQuadric(y) {
		lh, nl := r.loopHops(g)
		for _, l := range lh[:nl] {
			if l == yp {
				return append(buf, src, r.node(y, g), dst)
			}
		}
	}
	// Via the common neighbor w of x and y (the alternating-path form,
	// which in particular covers y' == x' for involutions).
	w := r.ps.Structure.CommonNeighbor(x, y)
	if w != x && w != y {
		if r.cross(w, y, r.cross(x, w, xp)) == yp {
			return append(buf, src, r.node(w, r.cross(x, w, xp)), dst)
		}
	}
	panic(fmt.Sprintf("route: PolarStar adjacent-supernode case fell through (x=%d x'=%d y=%d y'=%d)", x, xp, y, yp))
}

// appendDistant handles supernodes at structure distance 2.
func (r *PolarStar) appendDistant(buf []int, x, xp, y, yp int) []int {
	src := r.node(x, xp)
	// The unique common neighbor of x and y in ER_q.
	w := r.ps.Structure.CommonNeighbor(x, y)
	mid := r.cross(x, w, xp)
	// Distance 2: the only 2-hop form is through w.
	if r.cross(w, y, mid) == yp {
		return append(buf, src, r.node(w, mid), r.node(y, yp))
	}
	// Distance 3: hop to (w, ·), then solve the adjacent-supernode case.
	buf = append(buf, src)
	return r.appendAdjacent(buf, w, mid, y, yp)
}
