package route

import (
	"fmt"
	"math/rand"

	"polarstar/internal/topo"
)

// Bundlefly is an analytic minimal-path router for the Bundlefly star
// product (MMS structure × Paley supernode): the counterpart of the
// PolarStar router, built from factor-level state only (the 2q²-vertex
// MMS graph, the Paley adjacency and the R1 bijection f).
//
// The paper routes Bundlefly with all-minpath tables because "a single
// minpath per router pair" performs poorly (§9.3). This router provides
// exactly that single analytic minpath, so the claim can be tested
// directly (see the ablation benchmark and sim tests).
//
// Path construction mirrors the PolarStar case analysis with two
// simplifications — MMS graphs have no self-loops, and the Paley
// supernode has diameter 2 — plus one generalization: common neighbors
// in MMS are not unique, so the distance-2 check scans all of them. The
// common-neighbor scans are inlined merges over the sorted adjacency
// lists, keeping AppendPath allocation-free.
type Bundlefly struct {
	bf   *topo.Bundlefly
	fInv []int
}

// NewBundlefly builds the analytic Bundlefly router.
func NewBundlefly(bf *topo.Bundlefly) *Bundlefly {
	fInv := make([]int, len(bf.Super.F))
	for x, y := range bf.Super.F {
		fInv[y] = x
	}
	return &Bundlefly{bf: bf, fInv: fInv}
}

// cross maps a supernode-local vertex across the structure arc u→v
// (star-product orientation: low-to-high applies f forward).
func (r *Bundlefly) cross(u, v, z int) int {
	if u < v {
		return r.bf.Super.F[z]
	}
	return r.fInv[z]
}

func (r *Bundlefly) crossInv(u, v, z int) int {
	if u < v {
		return r.fInv[z]
	}
	return r.bf.Super.F[z]
}

func (r *Bundlefly) node(x, xp int) int { return x*r.bf.Super.N() + xp }

// Dist implements Engine.
func (r *Bundlefly) Dist(src, dst int) int { return len(r.AppendPath(nil, src, dst, nil)) - 1 }

// AppendPath implements Engine; the path is minimal (cross-checked
// exhaustively against BFS in the tests).
func (r *Bundlefly) AppendPath(buf []int, src, dst int, _ *rand.Rand) []int {
	if src == dst {
		return buf
	}
	sn := r.bf.Super.N()
	x, xp := src/sn, src%sn
	y, yp := dst/sn, dst%sn
	sup := r.bf.Super.G
	switch {
	case x == y:
		// Same supernode: the Paley graph has diameter 2.
		if sup.HasEdge(xp, yp) {
			return append(buf, src, dst)
		}
		for _, z := range sup.Neighbors(xp) {
			if sup.HasEdge(int(z), yp) {
				return append(buf, src, r.node(x, int(z)), dst)
			}
		}
		panic(fmt.Sprintf("route: Paley supernode pair (%d,%d) beyond distance 2", xp, yp))
	case r.bf.Structure.G.HasEdge(x, y):
		return r.appendAdjacent(buf, x, xp, y, yp)
	default:
		// Structure distance 2 (MMS diameter 2). Distance-2 product
		// paths exist only through a common neighbor w whose crossing
		// composition lands on y'. Merge-scan the sorted MMS lists.
		a := r.bf.Structure.G.Neighbors(x)
		b := r.bf.Structure.G.Neighbors(y)
		first := -1
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				w := int(a[i])
				if first < 0 {
					first = w
				}
				mid := r.cross(x, w, xp)
				if r.cross(w, y, mid) == yp {
					return append(buf, src, r.node(w, mid), dst)
				}
				i++
				j++
			}
		}
		if first < 0 {
			panic(fmt.Sprintf("route: MMS vertices %d,%d at distance 2 share no neighbor", x, y))
		}
		// Distance 3: hop into the first common neighbor, then solve the
		// adjacent-supernode case (always ≤ 2 more hops).
		mid := r.cross(x, first, xp)
		buf = append(buf, src)
		return r.appendAdjacent(buf, first, mid, y, yp)
	}
}

// appendAdjacent handles structure-adjacent supernodes: distance 1 or 2,
// by the R1 argument (E' ∪ f(E') complete and f² an automorphism).
func (r *Bundlefly) appendAdjacent(buf []int, x, xp, y, yp int) []int {
	sup := r.bf.Super.G
	src, dst := r.node(x, xp), r.node(y, yp)
	g := r.cross(x, y, xp)
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
	// Via a common structure neighbor (covers residual cases such as
	// y' == x' when neither supernode form applies).
	a := r.bf.Structure.G.Neighbors(x)
	b := r.bf.Structure.G.Neighbors(y)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			w := int(a[i])
			if r.cross(w, y, r.cross(x, w, xp)) == yp {
				return append(buf, src, r.node(w, r.cross(x, w, xp)), dst)
			}
			i++
			j++
		}
	}
	panic(fmt.Sprintf("route: Bundlefly adjacent case fell through (x=%d x'=%d y=%d y'=%d)", x, xp, y, yp))
}
