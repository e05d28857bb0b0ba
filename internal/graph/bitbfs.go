// Bit-parallel multi-source BFS: the all-pairs engine behind the
// diameter-3 verification, the fault-tolerance sweeps, the measured
// design-space tables, the search's delta evaluation and the all-pairs
// routing tables.
//
// The kernel runs up to 64 BFS traversals simultaneously, one per bit
// lane of a machine word: frontier/visited state is one uint64 per
// vertex, a level expansion ORs frontier words across the CSR adjacency,
// and per-level lane counts recover exact per-source distance aggregates
// (sum, count, eccentricity) plus, on request, a global distance
// histogram, per-lane level counts, full distance vectors (one byte per
// vertex and lane, or eight bit planes per vertex) or, per arc, the
// lanes whose source the arc steps one hop closer to. One batch
// therefore traverses the edge array once per BFS *level* instead of once
// per *source*: on the diameter-3 graphs this repository studies, three
// word-parallel expansions replace 64 scalar traversals.
//
// There is one level loop (bitBFS) behind the four exported entry
// points. Its advance pass does a few branch-free word operations per
// vertex: new bits are attributed to lanes by a bit-sliced carry-save
// counter (laneCounter) that is read out once per level, and a running
// count of visited (vertex, lane) bits ends the batch the moment every
// lane has covered the graph, so the last frontier of a connected batch
// is never expanded. Batches that cannot cover the graph end on the
// first empty level. Most of a level's cost is the expand pass: one
// random OR into next per CSR arc.
//
// All aggregates are integers, so every summation order yields the same
// result; the parallel drivers nevertheless shard source batches in a
// fixed stride order and merge per-worker partials in worker order,
// keeping results bit-identical to the scalar reference at any
// GOMAXPROCS.
//
// Scalar BFS (BFSDistances) serves single-source queries; the
// kernel wins whenever many sources are traversed, whether their results
// are aggregated or kept (routing tables read each batch's distance
// vectors and arc record).
package graph

import (
	"math/bits"
	"runtime"
	"sync"
)

// BitBFSScratch is the reusable arena of the bit-parallel BFS kernel:
// three n-word bitsets (visited, current frontier, next frontier) plus a
// source-id staging array. The zero value is ready to use; one scratch
// serves one goroutine at a time and is reused across batches and across
// graphs (it regrows as needed).
type BitBFSScratch struct {
	visited  []uint64
	frontier []uint64
	next     []uint64
	srcs     [64]int32
}

// reset sizes the arena for an n-vertex graph and clears it. Cross-size
// reuse is safe in both directions: shrinking re-slices (capacity and any
// stale words beyond n are retained but never read), growing reallocates
// all three bitsets together, and the clear always covers the full
// re-sliced window so bits left by a previous, larger graph cannot leak
// into a later batch. TestBitBFSScratchCrossSizeReuse pins this.
func (s *BitBFSScratch) reset(n int) {
	if len(s.frontier) != len(s.visited) || len(s.next) != len(s.visited) {
		panic("graph: BitBFSScratch bitsets diverged; a scratch must not be shared between goroutines")
	}
	if cap(s.visited) < n {
		s.visited = make([]uint64, n)
		s.frontier = make([]uint64, n)
		s.next = make([]uint64, n)
	}
	s.visited = s.visited[:n]
	s.frontier = s.frontier[:n]
	s.next = s.next[:n]
	clear(s.visited)
	clear(s.frontier)
	clear(s.next)
}

// BatchBFSStats aggregates one batch of up to 64 simultaneous BFS
// traversals; lane i corresponds to the i-th source of the batch. Only
// destinations at distance ≥ 1 are counted, so a source never counts
// itself.
type BatchBFSStats struct {
	Lanes   int       // sources in the batch; lanes ≥ Lanes are zero
	Ecc     [64]int32 // largest counted distance per lane (0: none)
	Sum     [64]int64 // sum of counted distances per lane
	Reached [64]int64 // counted destinations per lane
}

// laneCounter counts, for each of the 64 bit lanes, the added words that
// had the lane's bit set. It is bit-sliced — plane i holds bit i of all
// 64 counts — and fed Harley–Seal style: add only buffers a word, and
// every 16th add compresses the block into planes 0–3 with 15 carry-save
// adders (five word operations each, no branch), leaving one "sixteens"
// word that ripples upward from plane 4. A ripple-carry add per word
// would run one dependent step per plane its carry crosses and end on a
// branch the CPU cannot predict. 32 planes hold any count a level can
// produce (below 2³¹ vertices).
type laneCounter struct {
	plane [32]uint64
	buf   [16]uint64
	n     int // words in buf
}

func (c *laneCounter) add(w uint64) {
	c.buf[c.n&15] = w // n < 16 here; the mask only drops the bounds check
	if c.n++; c.n == len(c.buf) {
		c.flush()
	}
}

// csa is a carry-save adder: per lane, a+b+c = 2·hi + lo.
func csa(a, b, c uint64) (hi, lo uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// flush compresses the full buffer into the planes.
func (c *laneCounter) flush() {
	b := &c.buf
	ones, twos, fours, eights := c.plane[0], c.plane[1], c.plane[2], c.plane[3]
	var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens uint64
	twosA, ones = csa(ones, b[0], b[1])
	twosB, ones = csa(ones, b[2], b[3])
	foursA, twos = csa(twos, twosA, twosB)
	twosA, ones = csa(ones, b[4], b[5])
	twosB, ones = csa(ones, b[6], b[7])
	foursB, twos = csa(twos, twosA, twosB)
	eightsA, fours = csa(fours, foursA, foursB)
	twosA, ones = csa(ones, b[8], b[9])
	twosB, ones = csa(ones, b[10], b[11])
	foursA, twos = csa(twos, twosA, twosB)
	twosA, ones = csa(ones, b[12], b[13])
	twosB, ones = csa(ones, b[14], b[15])
	foursB, twos = csa(twos, twosA, twosB)
	eightsB, fours = csa(fours, foursA, foursB)
	sixteens, eights = csa(eights, eightsA, eightsB)
	c.plane[0], c.plane[1], c.plane[2], c.plane[3] = ones, twos, fours, eights
	c.ripple(4, sixteens)
	c.n = 0
}

// ripple adds w at plane i: bit-sliced ripple-carry.
func (c *laneCounter) ripple(i int, w uint64) {
	for ; w != 0; i++ {
		c.plane[i], w = c.plane[i]^w, c.plane[i]&w
	}
}

// drain writes the 64 counts to out and zeroes the counter, buffer
// included.
func (c *laneCounter) drain(out *[64]int64) {
	for _, w := range c.buf[:c.n] {
		c.ripple(0, w)
	}
	*out = [64]int64{}
	for i, plane := range c.plane {
		for w := plane; w != 0; w &= w - 1 {
			out[bits.TrailingZeros64(w)] += 1 << uint(i)
		}
	}
	*c = laneCounter{}
}

// bfsRecord selects what one batch records besides its BatchBFSStats;
// the zero value records nothing more.
type bfsRecord struct {
	dst    []bool   // count only these destinations (nil: all)
	hist   []int64  // hist[d] += counted pairs at distance d (nil: off)
	dist   []uint8  // vertex-major distance vectors, see BitBFSBatchArcs
	planes []uint64 // vertex-major distance bit planes, see BitBFSBatchPlanes
	rows   []int32  // lane-major level counts, see BitBFSBatchRows
	arcs   []uint64 // per-arc lanes that step one hop closer, see BitBFSBatchArcs
	stride int      // of dist or rows
	limit  int32    // smallest distance that does not fit (0: none)
}

// bitBFS is the level loop behind the four exported batch entry points:
// one level-synchronous bit-parallel BFS from up to 64 sources. It
// returns ok=false as soon as a non-empty level reaches r.limit. It ends
// once every lane has visited every vertex — so a connected batch never
// expands its last frontier only to find nothing new — and otherwise on
// the first empty level.
func (g *Graph) bitBFS(srcs []int32, s *BitBFSScratch, r *bfsRecord) (st BatchBFSStats, ok bool) {
	st.Lanes = len(srcs)
	if len(srcs) == 0 {
		return st, true
	}
	if len(srcs) > 64 {
		panic("graph: bit-parallel BFS batch exceeds 64 sources")
	}
	s.reset(g.n)
	visited, frontier, next := s.visited, s.frontier, s.next
	for lane, v := range srcs {
		bit := uint64(1) << uint(lane)
		visited[v] |= bit
		frontier[v] |= bit
	}
	dst, dist, planes, stride := r.dst, r.dist, r.planes, r.stride
	distances := dist != nil || planes != nil // one test per new word for both records
	// Coverage counts every visited (vertex, lane) bit, counted
	// destination or not: it decides termination, not statistics.
	covered, all := len(srcs), len(srcs)*g.n
	var cnt laneCounter
	var laneCnt [64]int64
	for level := int32(1); covered < all; level++ {
		// Expand: next[v] accumulates the frontier words of v's neighbors.
		for u, f := range frontier {
			if f == 0 {
				continue
			}
			for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
				next[v] |= f
			}
		}
		// Arcs come only with distance vectors (BitBFSBatchArcs); testing
		// dist first measured ~1.5 % faster on batches recording neither.
		if dist != nil && r.arcs != nil {
			g.recordArcs(r.arcs, s)
		}
		// Advance: newly-reached bits become the next frontier and are
		// counted per lane.
		before := covered
		for v := range next {
			nw := next[v] &^ visited[v]
			next[v] = 0
			frontier[v] = nw
			if nw == 0 {
				continue
			}
			visited[v] |= nw
			covered += bits.OnesCount64(nw)
			if distances {
				if dist != nil {
					row := dist[v*stride : v*stride+len(srcs)]
					for w := nw; w != 0; w &= w - 1 {
						row[bits.TrailingZeros64(w)] = uint8(level)
					}
				} else {
					// One OR per set bit of level, usually one or two.
					p := planes[v*8 : v*8+8]
					for b := uint32(level); b != 0; b &= b - 1 {
						p[bits.TrailingZeros32(b)&7] |= nw
					}
				}
			}
			if dst == nil || dst[v] {
				cnt.add(nw)
			}
		}
		if covered == before {
			break
		}
		// Checked only once the level is known non-empty, so a batch whose
		// largest distance is exactly limit-1 still fits.
		if r.limit > 0 && level >= r.limit {
			return st, false
		}
		cnt.drain(&laneCnt)
		levelTotal := int64(0)
		for lane, c := range laneCnt[:len(srcs)] {
			if c == 0 {
				continue
			}
			levelTotal += c
			st.Reached[lane] += c
			st.Sum[lane] += int64(level) * c
			st.Ecc[lane] = level
			if r.rows != nil {
				r.rows[lane*r.stride+int(level)] = int32(c)
			}
		}
		if r.hist != nil && levelTotal > 0 {
			for len(r.hist) <= int(level) {
				r.hist = append(r.hist, 0)
			}
			r.hist[level] += levelTotal
		}
	}
	if distances && covered < all {
		// Distances were written only at visited vertices; an unreached
		// lane gets DistUnreachable, as a byte or as every plane set.
		full := ^uint64(0) >> uint(64-len(srcs))
		for v := 0; v < g.n; v++ {
			w := full &^ visited[v]
			for i := v * 8; planes != nil && i < v*8+8; i++ {
				planes[i] |= w
			}
			for ; dist != nil && w != 0; w &= w - 1 {
				dist[v*stride+bits.TrailingZeros64(w)] = DistUnreachable
			}
		}
	}
	return st, true
}

// recordArcs is the arc pass between a level's expand and advance: a
// lane new at v steps one hop closer to its source over every arc v→w
// whose w is on the lane's current frontier.
func (g *Graph) recordArcs(arcs []uint64, s *BitBFSScratch) {
	for v, x := range s.next {
		if nw := x &^ s.visited[v]; nw != 0 {
			for c := g.off[v]; c < g.off[v+1]; c++ {
				arcs[c] |= s.frontier[g.nbr[c]] & nw
			}
		}
	}
}

// BitBFSBatch runs one level-synchronous bit-parallel BFS from up to 64
// sources simultaneously and returns exact per-source distance
// aggregates derived from per-level lane counts.
//
// dst, when non-nil (length N), restricts which destinations are
// *counted*; traversal still crosses every vertex, so distances through
// uncounted vertices remain exact. hist, when non-nil, additionally
// accumulates hist[d] += (counted pairs at distance d), growing as
// needed; the possibly-grown slice is returned.
//
// The kernel only reads the graph, so concurrent batches on one graph
// are safe as long as each goroutine owns its scratch.
func (g *Graph) BitBFSBatch(srcs []int32, s *BitBFSScratch, dst []bool, hist []int64) (BatchBFSStats, []int64) {
	r := bfsRecord{dst: dst, hist: hist}
	st, _ := g.bitBFS(srcs, s, &r)
	return st, r.hist
}

// DistUnreachable marks an unreached vertex in the distance vectors of
// BitBFSBatchArcs and BitBFSBatchPlanes.
const DistUnreachable = ^uint8(0)

// BitBFSBatchPlanes is BitBFSBatch additionally recording every lane's
// distance vector as bit planes: on return, bit lane of planes[v·8+i] is
// bit i of the hop distance from srcs[lane] to v (DistUnreachable: all
// eight set), so a lane mask of "distance equals k" at v costs eight
// word operations. planes (length ≥ 8·N()) is cleared first; lanes ≥
// len(srcs) read 0. Returns ok=false (planes contents unspecified) if
// any distance reaches 255.
func (g *Graph) BitBFSBatchPlanes(srcs []int32, s *BitBFSScratch, planes []uint64) (st BatchBFSStats, ok bool) {
	clear(planes[:8*g.n])
	return g.bitBFS(srcs, s, &bfsRecord{planes: planes, limit: int32(DistUnreachable)})
}

// BitBFSBatchArcs is BitBFSBatch additionally recording every lane's
// distance vector and, unless arcs is nil, every source's minimal next
// hops. On return dist[v·stride+lane] holds the hop distance from
// srcs[lane] to v, or DistUnreachable (stride ≥ len(srcs), len(dist) ≥
// (N()−1)·stride + len(srcs)); bit lane of arcs[c], c the channel id of
// arc v→w, is set exactly when dist(srcs[lane], w) = dist(srcs[lane], v)
// − 1, and arcs (length ≥ NumChannels()) is cleared first. Returns
// ok=false (dist contents unspecified) if any distance reaches 255.
func (g *Graph) BitBFSBatchArcs(srcs []int32, s *BitBFSScratch, dist []uint8, stride int, arcs []uint64) (st BatchBFSStats, ok bool) {
	if stride < len(srcs) {
		panic("graph: BitBFSBatchArcs stride below lane count")
	}
	clear(arcs)
	for lane, v := range srcs {
		dist[int(v)*stride+lane] = 0
	}
	return g.bitBFS(srcs, s, &bfsRecord{dist: dist, arcs: arcs, stride: stride, limit: int32(DistUnreachable)})
}

// BitBFSBatchRows is BitBFSBatch additionally recording per-lane level
// counts: on return rows[lane*stride+d] holds the number of vertices at
// distance exactly d (1 ≤ d < stride) from srcs[lane]; rows[lane*stride]
// is 0 (a source never counts itself). The used lane windows are zeroed
// first, so callers can hand in a dirty buffer. rows must have length ≥
// len(srcs)·stride. Returns ok=false — with rows contents unspecified —
// when some lane's eccentricity reaches stride, letting DeltaStats grow
// its row stride and retry.
func (g *Graph) BitBFSBatchRows(srcs []int32, s *BitBFSScratch, rows []int32, stride int) (st BatchBFSStats, ok bool) {
	if stride < 1 {
		panic("graph: BitBFSBatchRows stride must be >= 1")
	}
	clear(rows[:len(srcs)*stride])
	return g.bitBFS(srcs, s, &bfsRecord{rows: rows, stride: stride, limit: int32(stride)})
}

// forEachBatch is the one all-pairs driver loop: it calls visit once per
// batch of 64 consecutive sources (the last batch may be shorter), with
// the batch's first vertex, its source list and a scratch arena for the
// kernel. Batches are strided over `workers` goroutines, each owning one
// arena; a single worker runs on the calling goroutine with s. visit gets
// its worker's index so accumulators can be per-worker and unlocked;
// callers merge them in worker order, and since every aggregate is an
// integer sum or max the merged result is bit-identical at any worker
// count.
func (g *Graph) forEachBatch(workers int, s *BitBFSScratch, visit func(w, base int, srcs []int32, s *BitBFSScratch)) {
	if workers < 1 {
		workers = 1
	}
	run := func(w int, s *BitBFSScratch) {
		for base := w * 64; base < g.n; base += workers * 64 {
			lanes := g.n - base
			if lanes > 64 {
				lanes = 64
			}
			for i := 0; i < lanes; i++ {
				s.srcs[i] = int32(base + i)
			}
			visit(w, base, s.srcs[:lanes], s)
		}
	}
	if workers == 1 {
		run(0, s)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s BitBFSScratch
			run(w, &s)
		}(w)
	}
	wg.Wait()
}

// allPairsWorkers returns the worker count of the parallel all-pairs
// drivers: GOMAXPROCS, capped at the number of source batches.
func (g *Graph) allPairsWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if nb := (g.n + 63) / 64; w > nb {
		w = nb
	}
	if w < 1 {
		w = 1
	}
	return w
}

// allPairsStats folds every batch's lane stats into per-worker partials
// and merges them.
func (g *Graph) allPairsStats(workers int, s *BitBFSScratch) PathStats {
	type partial struct {
		sum, pairs int64
		diam       int32
	}
	parts := make([]partial, workers)
	g.forEachBatch(workers, s, func(w, _ int, srcs []int32, s *BitBFSScratch) {
		st, _ := g.BitBFSBatch(srcs, s, nil, nil)
		a := &parts[w]
		for l := range srcs {
			a.pairs += st.Reached[l]
			a.sum += st.Sum[l]
			if st.Ecc[l] > a.diam {
				a.diam = st.Ecc[l]
			}
		}
	})
	var t partial
	for _, a := range parts {
		t.sum += a.sum
		t.pairs += a.pairs
		if a.diam > t.diam {
			t.diam = a.diam
		}
	}
	// Connectivity falls out of the pair count: every source reaches all
	// n−1 others iff the total equals n(n−1).
	stats := PathStats{
		Diameter:  t.diam,
		Pairs:     t.pairs,
		Connected: t.pairs == int64(g.n)*int64(g.n-1),
	}
	if t.pairs > 0 {
		stats.AvgPath = float64(t.sum) / float64(t.pairs)
	}
	return stats
}

// AllPairsStatsSerial computes AllPairsStats on the calling goroutine
// through the bit-parallel kernel, reusing an explicit scratch arena.
// It is the building block for worker pools that parallelize over
// *graphs* (the design-space sweeps) rather than over sources: each pool
// worker owns one scratch and measures whole topology points serially,
// avoiding nested parallelism.
func (g *Graph) AllPairsStatsSerial(s *BitBFSScratch) PathStats {
	return g.allPairsStats(1, s)
}

// AllPairsStats computes the diameter, average shortest-path length and
// connectivity of g — the workhorse behind the diameter-3 verification
// (Table 3), the design-space sweeps and the fault-tolerance experiment.
//
// Sources are processed 64 at a time by the bit-parallel kernel
// (BitBFSBatch), batches sharded across GOMAXPROCS workers (forEachBatch).
// All aggregation is integer, so the result is bit-identical to a scalar
// one-BFS-per-source scan at any worker count (pinned by the tests'
// reference implementation).
func (g *Graph) AllPairsStats() PathStats {
	var s BitBFSScratch
	return g.allPairsStats(g.allPairsWorkers(), &s)
}

// DistanceHistogram returns hist with hist[d] = number of ordered vertex
// pairs (u,v), u ≠ v, at distance exactly d, for d in [0, Diameter]
// (hist[0] is always 0; unreachable pairs are not counted). For a
// diameter-3 network, Σ d·hist[d] / Σ hist[d] is exactly the average
// path length studied by §11.
func (g *Graph) DistanceHistogram() []int64 {
	workers := g.allPairsWorkers()
	hists := make([][]int64, workers)
	for w := range hists {
		hists[w] = []int64{0}
	}
	var s BitBFSScratch
	g.forEachBatch(workers, &s, func(w, _ int, srcs []int32, s *BitBFSScratch) {
		_, hists[w] = g.BitBFSBatch(srcs, s, nil, hists[w])
	})
	out := hists[0]
	for _, h := range hists[1:] {
		for len(out) < len(h) {
			out = append(out, 0)
		}
		for d, c := range h {
			out[d] += c
		}
	}
	return out
}
