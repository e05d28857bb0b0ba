package route

import (
	"math/rand"

	"polarstar/internal/topo"
)

// maxInlineDims bounds the stack-allocated per-path dimension scratch of
// the HyperX router; every evaluated HyperX has ≤ 3 dimensions.
const maxInlineDims = 8

// HyperX is the dimension-aligning minimal router (§9.3): a minimal path
// corrects each mismatched coordinate with one hop, and all minpaths are
// obtained by permuting the dimension order — path diversity without
// routing tables.
type HyperX struct{ hx *topo.HyperX }

// NewHyperX builds the HyperX dimension-order router.
func NewHyperX(hx *topo.HyperX) *HyperX { return &HyperX{hx: hx} }

// Dist implements Engine: the Hamming distance between coordinates.
func (r *HyperX) Dist(src, dst int) int {
	d := 0
	for _, size := range r.hx.Dims {
		if src%size != dst%size {
			d++
		}
		src /= size
		dst /= size
	}
	return d
}

// AppendPath implements Engine, sampling a random dimension correction
// order. Mismatched dimensions are collected as
// vertex-id deltas (coordinate difference × dimension stride) in a
// fixed-size array, shuffled, and applied cumulatively — no coordinate
// slices, no allocation.
func (r *HyperX) AppendPath(buf []int, src, dst int, rng *rand.Rand) []int {
	if src == dst {
		return buf
	}
	var deltaArr [maxInlineDims]int
	delta := deltaArr[:0]
	if len(r.hx.Dims) > maxInlineDims {
		delta = make([]int, 0, len(r.hx.Dims))
	}
	stride := 1
	s, d := src, dst
	for _, size := range r.hx.Dims {
		if cs, cd := s%size, d%size; cs != cd {
			delta = append(delta, (cd-cs)*stride)
		}
		s /= size
		d /= size
		stride *= size
	}
	if rng != nil {
		rng.Shuffle(len(delta), func(i, j int) { delta[i], delta[j] = delta[j], delta[i] })
	}
	buf = append(buf, src)
	cur := src
	for _, dv := range delta {
		cur += dv
		buf = append(buf, cur)
	}
	return buf
}

// Dragonfly is the hierarchical minimal router: local hop to the router
// holding the right global link, the global hop, then a local hop inside
// the destination group (at most 3 hops).
type Dragonfly struct {
	df *topo.Dragonfly
	t  *Table // small helper table for exact minimality
}

// NewDragonfly builds the Dragonfly minimal router. The canonical
// arrangement makes analytic slot lookup possible, but group sizes are
// tiny, so a table over the switch graph keeps the implementation exact
// while the hierarchical structure bounds paths at 3 hops. The table is
// built on the first route (NewTableOnDemand).
func NewDragonfly(df *topo.Dragonfly) *Dragonfly {
	return &Dragonfly{df: df, t: NewTableOnDemand(df.G, AllMinPaths)}
}

// Dist implements Engine.
func (r *Dragonfly) Dist(src, dst int) int { return r.t.Dist(src, dst) }

// AppendPath implements Engine.
func (r *Dragonfly) AppendPath(buf []int, src, dst int, rng *rand.Rand) []int {
	return r.t.AppendPath(buf, src, dst, rng)
}

// FatTree is up-down routing on the 3-level folded Clos: ascend to a
// common ancestor (choosing among equivalent parents uniformly — the
// full path diversity of the Clos), then descend deterministically.
type FatTree struct{ ft *topo.FatTree }

// NewFatTree builds the fat-tree up-down router.
func NewFatTree(ft *topo.FatTree) *FatTree { return &FatTree{ft: ft} }

// Dist implements Engine for leaf-to-leaf and mixed-level pairs.
func (r *FatTree) Dist(src, dst int) int {
	return len(r.AppendPath(nil, src, dst, nil)) - 1
}

// AppendPath implements Engine. Both src and dst are switch ids; for the
// simulator they are always level-0 leaves.
func (r *FatTree) AppendPath(buf []int, src, dst int, rng *rand.Rand) []int {
	if src == dst {
		return buf
	}
	p := r.ft.P
	pick := func(n int) int {
		if rng == nil {
			return 0
		}
		return rng.Intn(n)
	}
	l1 := func(g, k int) int { return p*p + g*p + k }
	l2 := func(k, m int) int { return 2*p*p + k*p + m }
	// Decompose (leaf-level routing only; upper-level sources descend).
	if r.ft.Level(src) != 0 || r.ft.Level(dst) != 0 {
		// Non-leaf endpoints do not occur in the evaluation; fall back to
		// a trivial BFS-free construction: route leaf-wise via level
		// structure is unnecessary, so just panic loudly.
		panic("route: FatTree routing is defined for leaf routers")
	}
	gs := src / p
	gd := dst / p
	if gs == gd {
		// Same pod: up to a shared level-1 router, down.
		k := pick(p)
		return append(buf, src, l1(gs, k), dst)
	}
	// Different pods: up twice to a core router, down twice.
	k := pick(p)
	m := pick(p)
	return append(buf, src, l1(gs, k), l2(k, m), l1(gd, k), dst)
}

// Megafly routes leaf→spine→(global)→spine→leaf, with spine choice
// diversity inside the source group (§9.3: "path diversity between
// routers within the same group"). Implemented over a small exact table
// with AllMinPaths sampling, which realizes exactly that diversity.
type Megafly struct {
	mf *topo.Megafly
	t  *Table
}

// NewMegafly builds the Megafly minimal router; its table is built on
// the first route (NewTableOnDemand).
func NewMegafly(mf *topo.Megafly) *Megafly {
	return &Megafly{mf: mf, t: NewTableOnDemand(mf.G, AllMinPaths)}
}

// Dist implements Engine.
func (r *Megafly) Dist(src, dst int) int { return r.t.Dist(src, dst) }

// AppendPath implements Engine.
func (r *Megafly) AppendPath(buf []int, src, dst int, rng *rand.Rand) []int {
	return r.t.AppendPath(buf, src, dst, rng)
}

// Valiant wraps a minimal engine with randomized misrouting: a path to a
// random intermediate router followed by a minimal path to the
// destination (§9.3). Candidates exposes the UGAL choice set: the minimal
// path plus Samples valiant paths.
type Valiant struct {
	Min     Engine
	N       int // number of routers
	Samples int // intermediates sampled per decision (the paper uses 4)
}

// NewValiant builds a Valiant/UGAL path provider over a minimal engine.
func NewValiant(min Engine, numRouters, samples int) *Valiant {
	return &Valiant{Min: min, N: numRouters, Samples: samples}
}

// Via returns the two-phase path src→mid→dst, deduplicating the joint.
func (v *Valiant) Via(src, mid, dst int, rng *rand.Rand) []int {
	return v.AppendVia(nil, src, mid, dst, rng)
}

// AppendVia is the allocation-free variant of Via: it appends the
// two-phase path onto buf, dropping the duplicated intermediate.
func (v *Valiant) AppendVia(buf []int, src, mid, dst int, rng *rand.Rand) []int {
	if mid == src || mid == dst {
		return v.Min.AppendPath(buf, src, dst, rng)
	}
	n0 := len(buf)
	buf = v.Min.AppendPath(buf, src, mid, rng)
	if len(buf) == n0 {
		// First leg unroutable: degrade to the second leg alone.
		return v.Min.AppendPath(buf, mid, dst, rng)
	}
	n1 := len(buf)
	buf = v.Min.AppendPath(buf, mid, dst, rng)
	if len(buf) == n1 {
		return buf // second leg unroutable: first leg alone
	}
	// Drop the duplicated joint: buf[n1] repeats mid == buf[n1-1].
	copy(buf[n1:], buf[n1+1:])
	return buf[:len(buf)-1]
}

// Candidates returns the minimal path followed by Samples valiant paths.
func (v *Valiant) Candidates(src, dst int, rng *rand.Rand) [][]int {
	out := make([][]int, 0, v.Samples+1)
	out = append(out, Path(v.Min, src, dst, rng))
	for i := 0; i < v.Samples; i++ {
		out = append(out, v.Via(src, rng.Intn(v.N), dst, rng))
	}
	return out
}
