// Incremental all-pairs evaluation under 2-opt swaps: the inner-loop
// oracle of the design-space search (internal/search, cmd/pssearch).
//
// A full AllPairsStats on an n-vertex graph runs ⌈n/64⌉ bit-parallel
// batches. A 2-opt swap, however, leaves most BFS trees untouched, and
// which trees *can* change is decidable exactly from distances measured
// at the swapped endpoints and their neighborhoods:
//
//   - Removing edge {x,y} can change the distances from source s only if
//     the edge lies on s's shortest-path DAG (|d(s,x) − d(s,y)| = 1) AND
//     the deeper endpoint has no other neighbor one level closer to s.
//     If every vertex keeps at least one DAG parent edge, a level-by-
//     level induction shows every distance from s is preserved.
//   - Adding edge {x,y} can change the distances from source s only if
//     |d(s,x) − d(s,y)| ≥ 2 (or exactly one endpoint is unreachable):
//     otherwise any path using the new edge is no shorter than the old
//     distance, again by induction on the new distance.
//
// Both tests are conservative in the safe direction — a source that
// passes them provably keeps its exact distance vector — so recomputing
// BFS only from the failing ("dirty") sources reproduces the full
// recomputation bit for bit (the property tests in delta_test.go pin
// this against a scalar all-pairs scan and DistanceHistogram after every
// swap). The removal test consults the distances of the endpoints'
// neighbors, which is why the per-swap probe runs BitBFSBatchPlanes from
// the four endpoints and their neighborhoods, up to 64 of them per batch:
// a constant number of batches, independent of n, versus ⌈n/64⌉ for the
// full recomputation. The bit planes make the removal test word-parallel:
// per batch, the lanes at distance d(s,y)−1 from source s ANDed with the
// lanes holding y's neighbours replace a scan of y's neighbour list.
//
// All state updates are integer and processed in ascending source order,
// so DeltaStats inherits the repository-wide determinism contract: the
// final aggregates are a pure function of the starting graph and the
// swap sequence.
//
// A single evaluation additionally scales with cores: SetPool attaches
// an EvalPool and every phase of Apply — the region probe batches, the
// O(n) dirty-source scan, and the ⌈|dirty|/64⌉ recompute batches — plus
// the rebuild/Resync full passes shard across it. Workers write only
// into task-indexed slots (probe-plane blocks, per-chunk dirty
// lists, per-batch rows and lane stats) and the aggregates are folded
// serially in fixed batch/chunk order, so pooled results are
// bit-identical to the serial path at any pool width (pinned by
// TestDeltaStatsParallelDeterminism).
package graph

import (
	"fmt"
	"slices"
)

// DeltaStats maintains the exact all-pairs distance aggregates —
// diameter, average path length, connected pair count and the global
// distance histogram — of an editable graph while 2-opt swaps are
// applied to it, re-running BFS only from sources whose distance tree
// can have changed. It supports a one-deep Revert for rejected search
// moves and a full Resync for cadence-based verification.
//
// A DeltaStats owns its graph (NewDeltaStats clones the input) and
// serves one goroutine.
type DeltaStats struct {
	g      *Graph
	n      int
	stride int // row width; per-source level counts cover d < stride

	rows       []int32 // n×stride; rows[s·stride+d] = #vertices at distance d from s
	ecc        []int32 // per-source eccentricity
	srcSum     []int64 // per-source Σ distances
	srcReached []int64 // per-source reached count

	sum    int64   // Σ over connected ordered pairs of their distance
	pairs  int64   // connected ordered pairs
	hist   []int64 // hist[d] = ordered pairs at distance d; len stride
	eccCnt []int64 // eccCnt[e] = sources with eccentricity e; len stride

	// Per-swap scratch, reused across Apply calls (allocation-free once
	// warm).
	scratch   BitBFSScratch
	regionIdx []int32 // vertex -> probe lane (64·batch + lane), -1 outside the region
	region    []int32
	planes    []uint64 // per probe batch, an 8n-word BitBFSBatchPlanes block on the pre-swap graph
	nbrMask   []uint64 // nbrMask[k·batches+b]: lanes of batch b holding a neighbour of endpoint k
	dirty     []int32
	rowBuf    []int32 // per-batch 64×stride recompute output

	// Intra-evaluation parallelism (nil: serial). Workers fill the
	// task-indexed slots below; every fold stays serial in task order.
	pool        *EvalPool
	batchStats  []BatchBFSStats // per-batch lane aggregates
	batchOK     []bool          // per-batch kernel ok flags
	dirtyChunks [][]int32       // per-chunk dirty lists, chunk-ordered

	undo undoState

	// Telemetry for the search loop (read-only for callers).
	Evals        int64 // Apply calls
	FullRebuilds int64 // Applies that fell back to a full rebuild
	Resyncs      int64 // Resync calls
	DirtyTotal   int64 // Σ dirty-set sizes over all Applies
	LastDirty    int   // dirty-set size of the most recent Apply
	DistsBytes   int64 // high-water n·|region|: the probe's distances at a byte each (its planes take 64·n bytes a batch)
}

// dirtyChunkSize is the source-range granule of the parallel dirty scan:
// chunk c covers sources [c·dirtyChunkSize, (c+1)·dirtyChunkSize).
// Per-chunk dirty lists concatenated in chunk order reproduce the serial
// ascending-source order exactly.
const dirtyChunkSize = 512

// undoState is the one-deep backup taken by Apply so a rejected search
// move can be reverted exactly.
type undoState struct {
	valid      bool
	full       bool // the Apply rebuilt from scratch; Revert must too
	sw         Swap // inverse swap
	dirty      []int32
	rows       []int32
	ecc        []int32
	srcSum     []int64
	srcReached []int64
	sum, pairs int64
	hist       []int64
	eccCnt     []int64
}

// initStride is the starting row width. Diameter-3-family graphs use
// 4 entries; the width doubles (with a full rebuild) if a swap pushes
// some eccentricity past it.
const initStride = 8

// NewDeltaStats builds the incremental evaluation state for g. The graph
// is cloned (CloneEditable), so g itself is never mutated.
func NewDeltaStats(g *Graph) *DeltaStats { return NewDeltaStatsPool(g, nil) }

// NewDeltaStatsPool is NewDeltaStats with the initial full build (and
// every later phase) sharded across p; nil p means serial. Results are
// bit-identical either way.
func NewDeltaStatsPool(g *Graph, p *EvalPool) *DeltaStats {
	d := newDeltaStats(g, p)
	d.rebuild()
	return d
}

// newDeltaStats allocates the state of g that a build fills.
func newDeltaStats(g *Graph, p *EvalPool) *DeltaStats {
	n := g.N()
	d := &DeltaStats{g: g.CloneEditable(), n: n, stride: initStride, pool: p,
		regionIdx: make([]int32, n), ecc: make([]int32, n), srcSum: make([]int64, n), srcReached: make([]int64, n)}
	for i := range d.regionIdx {
		d.regionIdx[i] = -1
	}
	return d
}

// Clone returns what NewDeltaStatsPool(d.Graph(), p) would build, copied
// instead of recomputed: the CSR (ApplySwap keeps it sorted, as a Builder
// makes it), the aggregates, and the rows at the stride a build picks —
// the smallest 8·2ᵏ above the largest eccentricity — should a swap once
// have grown d's. Telemetry starts at zero; there is nothing to Revert.
func (d *DeltaStats) Clone(p *EvalPool) *DeltaStats {
	c := newDeltaStats(d.g, p)
	for _, e := range d.ecc {
		for int(e) >= c.stride {
			c.stride *= 2
		}
	}
	c.rows = make([]int32, c.n*c.stride)
	for s := 0; s < c.n; s++ {
		copy(c.rows[s*c.stride:(s+1)*c.stride], d.rows[s*d.stride:])
	}
	copy(c.ecc, d.ecc)
	copy(c.srcSum, d.srcSum)
	copy(c.srcReached, d.srcReached)
	c.sum, c.pairs = d.sum, d.pairs
	c.hist, c.eccCnt = slices.Clone(d.hist[:c.stride]), slices.Clone(d.eccCnt[:c.stride])
	return c
}

// SetPool attaches (or, with nil, detaches) the worker pool the next
// evaluation phases shard across. Purely a performance knob: every
// result is bit-identical at any pool width, so the search layer may
// re-point pools between epochs without perturbing determinism. The
// pool must not be in use by another goroutine while this DeltaStats
// evaluates.
func (d *DeltaStats) SetPool(p *EvalPool) { d.pool = p }

// growBatchBufs sizes the per-task result slots for nb tasks.
func (d *DeltaStats) growBatchBufs(nb int) {
	if cap(d.batchStats) < nb {
		d.batchStats = make([]BatchBFSStats, nb)
		d.batchOK = make([]bool, nb)
	}
	d.batchStats = d.batchStats[:nb]
	d.batchOK = d.batchOK[:nb]
}

// Graph returns the current graph. Callers must treat it as read-only;
// it is mutated by Apply and Revert.
func (d *DeltaStats) Graph() *Graph { return d.g }

// Stats returns the exact all-pairs statistics of the current graph,
// identical to g.AllPairsStats() but O(stride).
func (d *DeltaStats) Stats() PathStats {
	st := PathStats{
		Pairs:     d.pairs,
		Connected: d.pairs == int64(d.n)*int64(d.n-1),
	}
	for e := d.stride - 1; e >= 1; e-- {
		if d.eccCnt[e] > 0 {
			st.Diameter = int32(e)
			break
		}
	}
	if d.pairs > 0 {
		st.AvgPath = float64(d.sum) / float64(d.pairs)
	}
	return st
}

// SumPairs returns the integer pair (Σ distances, connected ordered
// pairs) — the exact quantities search cost functions combine, free of
// float rounding.
func (d *DeltaStats) SumPairs() (sum, pairs int64) { return d.sum, d.pairs }

// Histogram returns the global distance histogram in the same form as
// Graph.DistanceHistogram: hist[d] counts ordered pairs at distance
// exactly d for d in [0, Diameter], hist[0] = 0.
func (d *DeltaStats) Histogram() []int64 {
	diam := int(d.Stats().Diameter)
	out := make([]int64, diam+1)
	copy(out, d.hist[:diam+1])
	return out
}

// CanSwap reports whether sw is applicable to the current graph.
func (d *DeltaStats) CanSwap(sw Swap) bool { return d.g.CanSwap(sw) }

// Apply performs sw and delta-evaluates it: distances are recomputed
// only from the dirty sources. It returns the number of sources
// re-evaluated (n after a stride-growth rebuild). The previous state can
// be restored with Revert until the next Apply or Resync.
func (d *DeltaStats) Apply(sw Swap) int {
	if !d.g.CanSwap(sw) {
		panic(fmt.Sprintf("graph: DeltaStats.Apply: invalid %v", sw))
	}
	d.Evals++
	d.undo.valid = true
	d.undo.full = false
	d.undo.sw = sw.Inverse()

	d.buildRegion(sw)
	d.dirty = d.dirty[:0]
	if d.regionDists() {
		d.findDirty()
	} else {
		// A distance overflowed the 8-bit probe planes; treat every
		// source as dirty. Correct, just not incremental.
		for v := 0; v < d.n; v++ {
			d.dirty = append(d.dirty, int32(v))
		}
	}
	d.LastDirty = len(d.dirty)
	d.DirtyTotal += int64(len(d.dirty))

	d.backupDirty()
	d.g.ApplySwap(sw)
	if !d.reevalDirty() {
		// Some dirty eccentricity outgrew the rows. Rebuild wholesale at
		// a doubled stride; Revert handles this via its own rebuild.
		d.undo.full = true
		d.stride *= 2
		d.rebuild()
		d.FullRebuilds++
		return d.n
	}
	return len(d.dirty)
}

// Revert undoes the most recent Apply. It panics if there is nothing to
// revert (each Apply can be reverted at most once, and Resync clears the
// backup).
func (d *DeltaStats) Revert() {
	if !d.undo.valid {
		panic("graph: DeltaStats.Revert without a preceding Apply")
	}
	d.undo.valid = false
	d.g.ApplySwap(d.undo.sw)
	if d.undo.full {
		d.rebuild()
		return
	}
	for i, s := range d.undo.dirty {
		copy(d.rows[int(s)*d.stride:(int(s)+1)*d.stride], d.undo.rows[i*d.stride:(i+1)*d.stride])
		d.ecc[s] = d.undo.ecc[i]
		d.srcSum[s] = d.undo.srcSum[i]
		d.srcReached[s] = d.undo.srcReached[i]
	}
	d.sum, d.pairs = d.undo.sum, d.undo.pairs
	copy(d.hist, d.undo.hist)
	copy(d.eccCnt, d.undo.eccCnt)
}

// Resync recomputes every aggregate from scratch — the fixed-cadence
// guard the search loop runs — and reports whether the incremental state
// had drifted from the authoritative recomputation (it must never have;
// the search loop counts a true return as a hard error). Resync
// invalidates the Revert backup.
func (d *DeltaStats) Resync() (drifted bool) {
	d.Resyncs++
	d.undo.valid = false
	oldSum, oldPairs := d.sum, d.pairs
	oldHist := append([]int64(nil), d.hist...)
	oldEcc := append([]int32(nil), d.ecc...)
	d.rebuild()
	drifted = oldSum != d.sum || oldPairs != d.pairs
	for dd := range d.hist {
		var prev int64
		if dd < len(oldHist) {
			prev = oldHist[dd]
		}
		if d.hist[dd] != prev {
			drifted = true
		}
	}
	for v := range d.ecc {
		if d.ecc[v] != oldEcc[v] {
			drifted = true
		}
	}
	return drifted
}

// rebuild recomputes rows and aggregates for the whole graph, growing
// the stride until every eccentricity fits.
func (d *DeltaStats) rebuild() {
	for !d.tryBuild() {
		d.stride *= 2
	}
}

// tryBuild is one full recomputation attempt at the current stride.
func (d *DeltaStats) tryBuild() bool {
	if cap(d.rows) < d.n*d.stride {
		d.rows = make([]int32, d.n*d.stride)
	}
	d.rows = d.rows[:d.n*d.stride]
	if cap(d.hist) < d.stride {
		d.hist = make([]int64, d.stride)
		d.eccCnt = make([]int64, d.stride)
	}
	d.hist = d.hist[:d.stride]
	d.eccCnt = d.eccCnt[:d.stride]
	clear(d.hist)
	clear(d.eccCnt)
	d.sum, d.pairs = 0, 0
	nb := (d.n + 63) / 64
	d.growBatchBufs(nb)
	// Each batch writes its own 64-row window of d.rows plus its own
	// batchStats/batchOK slot; nothing else is shared.
	d.pool.Run(nb, &d.scratch, func(b int, s *BitBFSScratch) {
		base := b * 64
		lanes := min(64, d.n-base)
		for i := 0; i < lanes; i++ {
			s.srcs[i] = int32(base + i)
		}
		st, ok := d.g.BitBFSBatchRows(s.srcs[:lanes], s, d.rows[base*d.stride:], d.stride)
		d.batchStats[b] = st
		d.batchOK[b] = ok
	})
	for _, ok := range d.batchOK {
		if !ok {
			return false
		}
	}
	for b := 0; b < nb; b++ { // fixed batch-order fold
		base := b * 64
		st := &d.batchStats[b]
		for l := 0; l < st.Lanes; l++ {
			s := base + l
			d.ecc[s] = st.Ecc[l]
			d.srcSum[s] = st.Sum[l]
			d.srcReached[s] = st.Reached[l]
			d.sum += st.Sum[l]
			d.pairs += st.Reached[l]
			d.eccCnt[st.Ecc[l]]++
			for dd := 1; dd < d.stride; dd++ {
				d.hist[dd] += int64(d.rows[s*d.stride+dd])
			}
		}
	}
	return true
}

// buildRegion collects the four endpoints of sw followed by their
// (pre-swap) neighborhoods, deduplicated, indexes them in regionIdx and
// records in nbrMask which probe lanes hold each endpoint's neighbours.
// The endpoints always occupy lanes 0..3 of batch 0.
func (d *DeltaStats) buildRegion(sw Swap) {
	for _, v := range d.region {
		d.regionIdx[v] = -1
	}
	d.region = d.region[:0]
	add := func(v int32) {
		if d.regionIdx[v] < 0 {
			d.regionIdx[v] = int32(len(d.region))
			d.region = append(d.region, v)
		}
	}
	// Endpoints are distinct (CanSwap), so they take lanes 0..3.
	ends := [4]int32{sw.A, sw.B, sw.C, sw.D}
	for _, e := range ends {
		add(e)
	}
	for _, e := range ends {
		for _, w := range d.g.Neighbors(int(e)) {
			add(w)
		}
	}
	nb := (len(d.region) + 63) / 64
	d.nbrMask = append(d.nbrMask[:0], make([]uint64, 4*nb)...)
	for k, e := range ends {
		for _, w := range d.g.Neighbors(int(e)) {
			i := d.regionIdx[w]
			d.nbrMask[k*nb+int(i>>6)] |= 1 << uint(i&63)
		}
	}
}

// regionDists runs BitBFSBatchPlanes from every region vertex on the
// pre-swap graph, batch b writing block b of planes: word
// planes[8n·b + 8s + i] holds bit i of the distances between source s
// and the 64 region vertices of the batch. Returns false if some
// distance exceeds the probe range.
//
// The buffer grows by whole batches and never shrinks. DistsBytes
// records the high-water of n·|region| (a pure function of the swap
// sequence, so it checkpoints and resumes deterministically).
func (d *DeltaStats) regionDists() bool {
	r := len(d.region)
	d.DistsBytes = max(d.DistsBytes, int64(d.n*r))
	nb := (r + 63) / 64
	block := 8 * d.n
	if cap(d.planes) < nb*block {
		d.planes = make([]uint64, nb*block)
	}
	d.planes = d.planes[:nb*block]
	d.growBatchBufs(nb)
	d.pool.Run(nb, &d.scratch, func(b int, s *BitBFSScratch) {
		base := b * 64
		lanes := min(64, r-base)
		_, ok := d.g.BitBFSBatchPlanes(d.region[base:base+lanes], s, d.planes[b*block:(b+1)*block])
		d.batchOK[b] = ok
	})
	for b := 0; b < nb; b++ {
		if !d.batchOK[b] {
			return false
		}
	}
	return true
}

// findDirty appends to d.dirty every source whose distance vector can
// change under sw, in ascending order. With a pool attached the scan is
// chunked over fixed source ranges; per-chunk lists concatenated in
// chunk order reproduce the serial ascending order exactly.
func (d *DeltaStats) findDirty() {
	nc := (d.n + dirtyChunkSize - 1) / dirtyChunkSize
	if d.pool.Width() <= 1 || nc <= 1 {
		d.findDirtyRange(0, d.n, &d.dirty)
		return
	}
	if cap(d.dirtyChunks) < nc {
		old := d.dirtyChunks
		d.dirtyChunks = make([][]int32, nc)
		copy(d.dirtyChunks, old)
	}
	d.dirtyChunks = d.dirtyChunks[:nc]
	d.pool.Run(nc, &d.scratch, func(c int, _ *BitBFSScratch) {
		lo := c * dirtyChunkSize
		hi := min(lo+dirtyChunkSize, d.n)
		out := d.dirtyChunks[c][:0]
		d.findDirtyRange(lo, hi, &out)
		d.dirtyChunks[c] = out
	})
	for _, chunk := range d.dirtyChunks {
		d.dirty = append(d.dirty, chunk...)
	}
}

// findDirtyRange runs the dirty test for sources in [lo, hi), appending
// hits to out in ascending order. It only reads the probe planes and
// the neighbour masks, so disjoint ranges are safe to scan concurrently.
func (d *DeltaStats) findDirtyRange(lo, hi int, out *[]int32) {
	for s := lo; s < hi; s++ {
		// The endpoints are lanes 0..3 of batch 0 (buildRegion adds them
		// first). Partner distances: each endpoint gains exactly one new
		// edge (A~C, B~D), which can replace a lost shortest-path parent.
		// Bit k of plane i (lane k's distance bit i) goes to bit 8k+i of
		// x: the multiply spreads the lanes 0..3 nibble one per byte.
		var x uint32
		for i, w := range d.planes[8*s : 8*s+8] {
			x |= uint32(w&15) * 0x204081 & 0x01010101 << uint(i)
		}
		da, db, dc, dd := uint8(x), uint8(x>>8), uint8(x>>16), uint8(x>>24)
		if addedDirty(da, dc) || addedDirty(db, dd) ||
			d.removedDirty(s, 0, 1, da, db, dc, dd) ||
			d.removedDirty(s, 2, 3, dc, dd, da, db) {
			*out = append(*out, int32(s))
		}
	}
}

// addedDirty reports whether adding an edge between vertices at
// distances dx and dy from the source can change that source's distance
// vector: only if the gap is ≥ 2 hops, or exactly one side is
// unreachable.
func addedDirty(dx, dy uint8) bool {
	if dx == dy {
		return false
	}
	if dx == DistUnreachable || dy == DistUnreachable {
		return true
	}
	if dx > dy {
		dx, dy = dy, dx
	}
	return dy-dx >= 2
}

// removedDirty reports whether removing existing edge {x,y}, the
// endpoints in lanes kx and ky, can change the distances from source s:
// the edge must be on s's shortest-path DAG and be the deeper endpoint's
// only parent edge — counting, as a possible replacement parent, the new
// partner that endpoint gains from the swap's added edges (px partners x,
// py partners y). Per probe batch, one lane mask finds other parents.
func (d *DeltaStats) removedDirty(s, kx, ky int, dx, dy, px, py uint8) bool {
	if dx == dy {
		return false // not a DAG edge (covers both-unreachable)
	}
	if dx > dy {
		kx, ky = ky, kx
		dx, dy = dy, dx
		px, py = py, px
	}
	parent := dy - 1
	if py == parent {
		// The added edge hands y a parent at the same level, so the
		// level-by-level induction goes through without x.
		return false
	}
	nb := len(d.nbrMask) / 4
	for b, m := range d.nbrMask[ky*nb : (ky+1)*nb] {
		if b == 0 {
			m &^= 1 << uint(kx)
		}
		at := 8*d.n*b + 8*s
		for i, w := range d.planes[at : at+8] {
			m &= w ^ (uint64(parent>>uint(i)&1) - 1) // lanes whose bit i is parent's
		}
		if m != 0 {
			return false // y keeps another parent; all levels survive
		}
	}
	return true
}

// backupDirty snapshots the state Apply is about to overwrite.
func (d *DeltaStats) backupDirty() {
	nd := len(d.dirty)
	d.undo.dirty = append(d.undo.dirty[:0], d.dirty...)
	if cap(d.undo.rows) < nd*d.stride {
		d.undo.rows = make([]int32, nd*d.stride)
	}
	d.undo.rows = d.undo.rows[:nd*d.stride]
	d.undo.ecc = append(d.undo.ecc[:0], make([]int32, nd)...)[:nd]
	d.undo.srcSum = append(d.undo.srcSum[:0], make([]int64, nd)...)[:nd]
	d.undo.srcReached = append(d.undo.srcReached[:0], make([]int64, nd)...)[:nd]
	for i, s := range d.dirty {
		copy(d.undo.rows[i*d.stride:(i+1)*d.stride], d.rows[int(s)*d.stride:(int(s)+1)*d.stride])
		d.undo.ecc[i] = d.ecc[s]
		d.undo.srcSum[i] = d.srcSum[s]
		d.undo.srcReached[i] = d.srcReached[s]
	}
	d.undo.sum, d.undo.pairs = d.sum, d.pairs
	d.undo.hist = append(d.undo.hist[:0], d.hist...)
	d.undo.eccCnt = append(d.undo.eccCnt[:0], d.eccCnt...)
}

// reevalDirty recomputes the dirty sources on the post-swap graph and
// folds the differences into the aggregates. Returns false on stride
// overflow. The ⌈|dirty|/64⌉ recompute batches shard across the pool,
// each writing its own 64×stride rowBuf window and batchStats slot; the
// aggregate fold then walks the batches serially in fixed order — the
// same arithmetic, in the same order, as the serial path.
func (d *DeltaStats) reevalDirty() bool {
	nb := (len(d.dirty) + 63) / 64
	if cap(d.rowBuf) < nb*64*d.stride {
		d.rowBuf = make([]int32, nb*64*d.stride)
	}
	d.rowBuf = d.rowBuf[:nb*64*d.stride]
	d.growBatchBufs(nb)
	d.pool.Run(nb, &d.scratch, func(b int, s *BitBFSScratch) {
		base := b * 64
		lanes := min(64, len(d.dirty)-base)
		st, ok := d.g.BitBFSBatchRows(d.dirty[base:base+lanes], s, d.rowBuf[base*d.stride:], d.stride)
		d.batchStats[b] = st
		d.batchOK[b] = ok
	})
	for b := 0; b < nb; b++ {
		if !d.batchOK[b] {
			return false
		}
	}
	for b := 0; b < nb; b++ { // fixed batch-order fold
		base := b * 64
		st := &d.batchStats[b]
		for l := 0; l < st.Lanes; l++ {
			s := int(d.dirty[base+l])
			row := d.rows[s*d.stride : (s+1)*d.stride]
			newRow := d.rowBuf[(base+l)*d.stride : (base+l+1)*d.stride]
			for dd := 1; dd < d.stride; dd++ {
				d.hist[dd] += int64(newRow[dd]) - int64(row[dd])
			}
			copy(row, newRow)
			d.sum += st.Sum[l] - d.srcSum[s]
			d.pairs += st.Reached[l] - d.srcReached[s]
			d.srcSum[s] = st.Sum[l]
			d.srcReached[s] = st.Reached[l]
			d.eccCnt[d.ecc[s]]--
			d.eccCnt[st.Ecc[l]]++
			d.ecc[s] = int32(st.Ecc[l])
		}
	}
	return true
}
