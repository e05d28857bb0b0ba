package route

import (
	"fmt"
	"math/rand"
	"testing"

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
// directly (TestBundleflySingleVsMultiMinpath). Only tests run it.
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

// TestBundleflyAnalyticMinimal: the analytic Bundlefly router must return
// valid, exactly-minimal paths for every ordered pair, matching BFS.
func TestBundleflyAnalyticMinimal(t *testing.T) {
	for _, c := range []struct{ q, d int }{{4, 2}, {5, 2}} {
		bf := must(topo.NewBundlefly(c.q, c.d))
		r := NewBundlefly(bf)
		truth := NewTable(bf.G, SinglePath)
		n := bf.G.N()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				path := Path(r, src, dst, nil)
				if src == dst {
					if path != nil {
						t.Fatalf("self path not nil")
					}
					continue
				}
				if !PathValid(bf.G, path) {
					t.Fatalf("q=%d d'=%d: invalid path %v (src=%d dst=%d)", c.q, c.d, path, src, dst)
				}
				if path[0] != src || path[len(path)-1] != dst {
					t.Fatalf("wrong endpoints %v", path)
				}
				if got, want := len(path)-1, truth.Dist(src, dst); got != want {
					t.Fatalf("q=%d d'=%d: src=%d dst=%d analytic %d != BFS %d (%v)",
						c.q, c.d, src, dst, got, want, path)
				}
			}
		}
	}
}

func TestBundleflyAnalyticSpotCheckTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bf := must(topo.NewBundlefly(7, 4)) // the 882-router Table 3 config
	r := NewBundlefly(bf)
	truth := NewTable(bf.G, SinglePath)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		src, dst := rng.Intn(bf.G.N()), rng.Intn(bf.G.N())
		if src == dst {
			continue
		}
		path := Path(r, src, dst, nil)
		if !PathValid(bf.G, path) || len(path)-1 != truth.Dist(src, dst) {
			t.Fatalf("mismatch at src=%d dst=%d: %v (want %d)", src, dst, path, truth.Dist(src, dst))
		}
	}
}

// TestBundleflyPathDiversityAvailable: unlike PolarStar (whose minimal
// paths are near-unique), Bundlefly pairs at supernode distance 2 can
// have several minimal paths (multiple common MMS neighbors with a
// matching crossing composition), which is the diversity the paper's
// all-minpath tables exploit. Verify the table router actually samples
// more than one minimal path for some pair.
func TestBundleflyPathDiversityAvailable(t *testing.T) {
	bf := must(topo.NewBundlefly(5, 2))
	multi := NewTable(bf.G, AllMinPaths)
	rng := rand.New(rand.NewSource(5))
	diverse := false
	for src := 0; src < bf.G.N() && !diverse; src += 17 {
		for dst := 0; dst < bf.G.N() && !diverse; dst += 13 {
			if src == dst || multi.Dist(src, dst) < 2 {
				continue
			}
			seen := map[int]bool{}
			for k := 0; k < 32; k++ {
				seen[Path(multi, src, dst, rng)[1]] = true
			}
			diverse = len(seen) > 1
		}
	}
	if !diverse {
		t.Error("no minimal path diversity found on Bundlefly")
	}
}
