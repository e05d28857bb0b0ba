// Bit-parallel multi-source BFS: the all-pairs engine behind the
// diameter-3 verification, the fault-tolerance sweeps and the measured
// design-space tables.
//
// The kernel runs up to 64 BFS traversals simultaneously, one per bit
// lane of a machine word: frontier/visited state is one uint64 per
// vertex, a level expansion ORs frontier words across the CSR adjacency,
// and per-level popcounts recover exact per-source distance aggregates
// (sum, count, eccentricity) plus an optional global distance histogram.
// One batch therefore traverses the edge array once per BFS *level*
// instead of once per *source* — on the diameter-3 graphs this
// repository studies (three or four levels), that replaces 64 full
// scalar traversals with ~4 word-parallel ones.
//
// All aggregates are integers, so every summation order yields the same
// result; the parallel drivers nevertheless shard source batches in a
// fixed stride order and merge per-worker partials in worker order (the
// PR-1 link-load discipline), keeping results bit-identical to the
// scalar reference at any GOMAXPROCS.
//
// Scalar BFS (BFSDistancesScratch) still wins when the caller needs the
// actual distance vector of one source (routing-table construction,
// connectivity bisection) or when the graph is tiny enough that arena
// setup dominates; the kernel wins whenever ≥64 sources are aggregated.
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

// BitBFSBatch runs one level-synchronous bit-parallel BFS from up to 64
// sources simultaneously and returns exact per-source distance
// aggregates derived from per-level popcounts.
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
	var st BatchBFSStats
	st.Lanes = len(srcs)
	if len(srcs) == 0 {
		return st, hist
	}
	if len(srcs) > 64 {
		panic("graph: BitBFSBatch batch exceeds 64 sources")
	}
	s.reset(g.n)
	for lane, v := range srcs {
		bit := uint64(1) << uint(lane)
		s.visited[v] |= bit
		s.frontier[v] |= bit
	}
	collect := hist != nil
	for level := int32(1); ; level++ {
		// Expand: next[v] accumulates the frontier words of v's neighbors.
		for u := 0; u < g.n; u++ {
			f := s.frontier[u]
			if f == 0 {
				continue
			}
			for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
				s.next[v] |= f
			}
		}
		// Advance: newly-reached bits become the next frontier; popcount
		// them into per-lane counters for this level.
		var laneCnt [64]int64
		levelTotal := int64(0)
		anyNew := false
		for v := 0; v < g.n; v++ {
			nw := s.next[v] &^ s.visited[v]
			s.next[v] = 0
			s.frontier[v] = nw
			if nw == 0 {
				continue
			}
			anyNew = true
			s.visited[v] |= nw
			if dst != nil && !dst[v] {
				continue
			}
			levelTotal += int64(bits.OnesCount64(nw))
			for w := nw; w != 0; w &= w - 1 {
				laneCnt[bits.TrailingZeros64(w)]++
			}
		}
		if !anyNew {
			return st, hist
		}
		if collect && levelTotal > 0 {
			for len(hist) <= int(level) {
				hist = append(hist, 0)
			}
			hist[level] += levelTotal
		}
		for lane := 0; lane < st.Lanes; lane++ {
			c := laneCnt[lane]
			if c == 0 {
				continue
			}
			st.Reached[lane] += c
			st.Sum[lane] += int64(level) * c
			st.Ecc[lane] = level
		}
	}
}

// DistUnreachable marks an unreached vertex in the uint8 distance
// vectors produced by BitBFSBatchDist.
const DistUnreachable = ^uint8(0)

// BitBFSBatchDist is BitBFSBatch additionally recording the full
// distance vector of every lane in vertex-major layout: on return
// dist[v·stride+lane] holds the hop distance from srcs[lane] to v, or
// DistUnreachable. stride must be ≥ len(srcs) and dist must have length
// ≥ (N()−1)·stride + len(srcs); a caller assembling more than 64 source
// vectors passes the same stride with an offset slice per batch. The
// vertex-major layout keeps one vertex's lanes in one cache line — the
// lane-major alternative scatters every distance write across stride-N
// regions and measures ~4x slower at n=4096 — and it is also the access
// order of the delta-evaluation dirty tests (DeltaStats), which read all
// probe distances of one source together. Returns ok=false (dist
// contents unspecified) if any distance would reach 255, so callers can
// fall back to treating every source as dirty.
func (g *Graph) BitBFSBatchDist(srcs []int32, s *BitBFSScratch, dist []uint8, stride int) (st BatchBFSStats, ok bool) {
	st.Lanes = len(srcs)
	if len(srcs) == 0 {
		return st, true
	}
	if len(srcs) > 64 {
		panic("graph: BitBFSBatchDist batch exceeds 64 sources")
	}
	if stride < len(srcs) {
		panic("graph: BitBFSBatchDist stride below lane count")
	}
	lanes := len(srcs)
	s.reset(g.n)
	for lane, v := range srcs {
		bit := uint64(1) << uint(lane)
		s.visited[v] |= bit
		s.frontier[v] |= bit
		dist[int(v)*stride+lane] = 0
	}
	for level := int32(1); ; level++ {
		if level >= int32(DistUnreachable) {
			return st, false
		}
		for u := 0; u < g.n; u++ {
			f := s.frontier[u]
			if f == 0 {
				continue
			}
			for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
				s.next[v] |= f
			}
		}
		var laneCnt [64]int64
		anyNew := false
		for v := 0; v < g.n; v++ {
			nw := s.next[v] &^ s.visited[v]
			s.next[v] = 0
			s.frontier[v] = nw
			if nw == 0 {
				continue
			}
			anyNew = true
			s.visited[v] |= nw
			row := dist[v*stride : v*stride+lanes]
			for w := nw; w != 0; w &= w - 1 {
				lane := bits.TrailingZeros64(w)
				laneCnt[lane]++
				row[lane] = uint8(level)
			}
		}
		if !anyNew {
			break
		}
		for lane := 0; lane < st.Lanes; lane++ {
			c := laneCnt[lane]
			if c == 0 {
				continue
			}
			st.Reached[lane] += c
			st.Sum[lane] += int64(level) * c
			st.Ecc[lane] = level
		}
	}
	// Unreached fix-up: dist was written only for visited vertices, so
	// lanes that did not reach the whole graph still hold stale bytes
	// there. Skipped entirely on the (common) all-lanes-connected path.
	needFix := false
	for lane := 0; lane < lanes; lane++ {
		if st.Reached[lane] != int64(g.n-1) {
			needFix = true
			break
		}
	}
	if needFix {
		full := ^uint64(0) >> uint(64-lanes)
		for v := 0; v < g.n; v++ {
			miss := full &^ s.visited[v]
			for w := miss; w != 0; w &= w - 1 {
				dist[v*stride+bits.TrailingZeros64(w)] = DistUnreachable
			}
		}
	}
	return st, true
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
	st.Lanes = len(srcs)
	if len(srcs) == 0 {
		return st, true
	}
	if len(srcs) > 64 {
		panic("graph: BitBFSBatchRows batch exceeds 64 sources")
	}
	if stride < 1 {
		panic("graph: BitBFSBatchRows stride must be >= 1")
	}
	clear(rows[:len(srcs)*stride])
	s.reset(g.n)
	for lane, v := range srcs {
		bit := uint64(1) << uint(lane)
		s.visited[v] |= bit
		s.frontier[v] |= bit
	}
	for level := int32(1); ; level++ {
		for u := 0; u < g.n; u++ {
			f := s.frontier[u]
			if f == 0 {
				continue
			}
			for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
				s.next[v] |= f
			}
		}
		var laneCnt [64]int64
		anyNew := false
		for v := 0; v < g.n; v++ {
			nw := s.next[v] &^ s.visited[v]
			s.next[v] = 0
			s.frontier[v] = nw
			if nw == 0 {
				continue
			}
			anyNew = true
			s.visited[v] |= nw
			for w := nw; w != 0; w &= w - 1 {
				laneCnt[bits.TrailingZeros64(w)]++
			}
		}
		if !anyNew {
			return st, true
		}
		// Checked only once the level is known non-empty, so a graph
		// whose eccentricity is exactly stride-1 still fits.
		if int(level) >= stride {
			return st, false
		}
		for lane := 0; lane < st.Lanes; lane++ {
			c := laneCnt[lane]
			if c == 0 {
				continue
			}
			st.Reached[lane] += c
			st.Sum[lane] += int64(level) * c
			st.Ecc[lane] = level
			rows[lane*stride+int(level)] = int32(c)
		}
	}
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

// Eccentricities returns the eccentricity of every vertex: the largest
// finite distance out of it (0 for isolated vertices; within its own
// component when g is disconnected). The all-vertex analogue of
// Eccentricity, computed 64 sources per traversal.
func (g *Graph) Eccentricities() []int32 {
	out := make([]int32, g.n)
	var s BitBFSScratch
	g.forEachBatch(g.allPairsWorkers(), &s, func(_, base int, srcs []int32, s *BitBFSScratch) {
		st, _ := g.BitBFSBatch(srcs, s, nil, nil)
		copy(out[base:], st.Ecc[:len(srcs)])
	})
	return out
}
