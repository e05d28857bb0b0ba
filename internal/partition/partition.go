// Package partition estimates minimum graph bisections: the substitute
// for METIS in the §11.1 bisection study (Figs 12 and 13).
//
// The algorithm is the same family METIS implements: multilevel recursive
// bisection with heavy-edge matching coarsening, greedy region-growing
// initial partitions, and Fiduccia–Mattheyses boundary refinement at
// every uncoarsening level, repeated over several random starts.
package partition

import (
	"math/rand"
	"slices"

	"polarstar/internal/graph"
)

// wgraph is an edge- and vertex-weighted graph used during coarsening.
type wgraph struct {
	n     int
	vwgt  []int
	adj   [][]int32
	ewgt  [][]int32
	total int // total vertex weight
}

func fromGraph(g *graph.Graph) *wgraph {
	n := g.N()
	w := &wgraph{n: n, vwgt: make([]int, n), adj: make([][]int32, n), ewgt: make([][]int32, n), total: n}
	for v := 0; v < n; v++ {
		w.vwgt[v] = 1
		nb := g.Neighbors(v)
		w.adj[v] = nb // shared, read-only
		ones := make([]int32, len(nb))
		for i := range ones {
			ones[i] = 1
		}
		w.ewgt[v] = ones
	}
	return w
}

// coarsen builds the next-level graph via heavy-edge matching. match maps
// fine vertices to coarse vertices.
func (w *wgraph) coarsen(rng *rand.Rand) (*wgraph, []int32) {
	match := make([]int32, w.n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(w.n)
	coarseN := 0
	for _, v := range order {
		if match[v] >= 0 {
			continue
		}
		// Pick the heaviest-edge unmatched neighbor.
		best, bestW := -1, int32(-1)
		for i, u := range w.adj[v] {
			if match[u] < 0 && int(u) != v && w.ewgt[v][i] > bestW {
				best, bestW = int(u), w.ewgt[v][i]
			}
		}
		match[v] = int32(coarseN)
		if best >= 0 {
			match[best] = int32(coarseN)
		}
		coarseN++
	}
	c := &wgraph{n: coarseN, vwgt: make([]int, coarseN), adj: make([][]int32, coarseN), ewgt: make([][]int32, coarseN), total: w.total}
	// Accumulate coarse adjacency.
	acc := make(map[int32]int32)
	members := make([][]int32, coarseN)
	for v := 0; v < w.n; v++ {
		members[match[v]] = append(members[match[v]], int32(v))
	}
	for cv := 0; cv < coarseN; cv++ {
		for k := range acc {
			delete(acc, k)
		}
		vw := 0
		for _, v := range members[cv] {
			vw += w.vwgt[v]
			for i, u := range w.adj[v] {
				cu := match[u]
				if cu != int32(cv) {
					acc[cu] += w.ewgt[v][i]
				}
			}
		}
		c.vwgt[cv] = vw
		adj := make([]int32, 0, len(acc))
		for cu := range acc {
			adj = append(adj, cu)
		}
		// Map order is random and the matching breaks weight ties by
		// adjacency order, so the order is fixed here.
		slices.Sort(adj)
		ew := make([]int32, len(adj))
		for i, cu := range adj {
			ew[i] = acc[cu]
		}
		c.adj[cv] = adj
		c.ewgt[cv] = ew
	}
	return c, match
}

// initialPartition grows a region from a random seed until it holds half
// the vertex weight.
func (w *wgraph) initialPartition(rng *rand.Rand) []bool {
	part := make([]bool, w.n)
	inQueue := make([]bool, w.n)
	target := w.total / 2
	weight := 0
	queue := []int32{int32(rng.Intn(w.n))}
	inQueue[queue[0]] = true
	for head := 0; head < len(queue) && weight < target; head++ {
		v := queue[head]
		if weight+w.vwgt[v] > target+w.vwgt[v]/2 {
			continue
		}
		part[v] = true
		weight += w.vwgt[v]
		for _, u := range w.adj[v] {
			if !inQueue[u] {
				inQueue[u] = true
				queue = append(queue, u)
			}
		}
	}
	// Top up from unvisited vertices if the region ran dry.
	for v := 0; v < w.n && weight < target; v++ {
		if !part[v] && weight+w.vwgt[v] <= target+w.vwgt[v]/2 {
			part[v] = true
			weight += w.vwgt[v]
		}
	}
	return part
}

// cutWeight returns the total weight of edges crossing the partition.
func (w *wgraph) cutWeight(part []bool) int64 {
	var cut int64
	for v := 0; v < w.n; v++ {
		for i, u := range w.adj[v] {
			if int(u) > v && part[v] != part[u] {
				cut += int64(w.ewgt[v][i])
			}
		}
	}
	return cut
}

// refineFM runs Fiduccia–Mattheyses passes: repeatedly move the
// highest-gain movable vertex (respecting balance), allowing negative-gain
// moves within a pass and keeping the best prefix.
func (w *wgraph) refineFM(part []bool, maxImbalance int, passes int) {
	n := w.n
	gain := make([]int32, n)
	side := make([]int, 2)
	for v := 0; v < n; v++ {
		if part[v] {
			side[1] += w.vwgt[v]
		} else {
			side[0] += w.vwgt[v]
		}
	}
	computeGain := func(v int) int32 {
		var g int32
		pv := part[v]
		for i, u := range w.adj[v] {
			if part[u] != pv {
				g += w.ewgt[v][i]
			} else {
				g -= w.ewgt[v][i]
			}
		}
		return g
	}
	locked := make([]bool, n)
	type move struct {
		v       int32
		cumGain int64
	}
	moves := make([]move, 0, n)
	for pass := 0; pass < passes; pass++ {
		for v := 0; v < n; v++ {
			gain[v] = computeGain(v)
			locked[v] = false
		}
		moves = moves[:0]
		var cum, bestSoFar int64
		stall := 0
		improved := false
		for step := 0; step < n; step++ {
			// Select best movable vertex (linear scan: graphs at the FM
			// levels are modest; a bucket queue is unnecessary here).
			best, bestGain := -1, int32(-1<<30)
			for v := 0; v < n; v++ {
				if locked[v] {
					continue
				}
				// Balance: moving v must keep both sides within bounds.
				from := 0
				if part[v] {
					from = 1
				}
				if rem := side[from] - w.vwgt[v]; rem < w.total/2-maxImbalance || rem < 1 {
					continue
				}
				if gain[v] > bestGain {
					best, bestGain = v, gain[v]
				}
			}
			if best < 0 {
				break
			}
			// Apply the move.
			from, to := 0, 1
			if part[best] {
				from, to = 1, 0
			}
			part[best] = !part[best]
			side[from] -= w.vwgt[best]
			side[to] += w.vwgt[best]
			locked[best] = true
			cum += int64(bestGain)
			moves = append(moves, move{v: int32(best), cumGain: cum})
			for i, u := range w.adj[best] {
				if locked[u] {
					continue
				}
				if part[u] == part[best] {
					gain[u] -= 2 * w.ewgt[best][i]
				} else {
					gain[u] += 2 * w.ewgt[best][i]
				}
			}
			// Early stop when the pass has dug deep with no improvement:
			// further moves rarely recover.
			if cum > bestSoFar {
				bestSoFar = cum
				stall = 0
			} else if stall++; stall > 200 {
				break
			}
		}
		// Roll back to the best prefix.
		bestIdx, bestCum := -1, int64(0)
		for i, m := range moves {
			if m.cumGain > bestCum {
				bestIdx, bestCum = i, m.cumGain
			}
		}
		for i := len(moves) - 1; i > bestIdx; i-- {
			v := moves[i].v
			from, to := 0, 1
			if part[v] {
				from, to = 1, 0
			}
			part[v] = !part[v]
			side[from] -= w.vwgt[v]
			side[to] += w.vwgt[v]
		}
		if bestCum > 0 {
			improved = true
		}
		if !improved {
			break
		}
	}
}

// Options tunes the bisector.
type Options struct {
	Seeds        int // random multistarts (default 4)
	CoarsenTo    int // stop coarsening below this size (default 64)
	RefinePasses int // FM passes per level (default 6)
	MaxImbalance int // allowed deviation from perfect halves in vertex weight (default max(1, n/100))
}

func (o Options) withDefaults(n int) Options {
	if o.Seeds <= 0 {
		o.Seeds = 4
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 64
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 6
	}
	if o.MaxImbalance <= 0 {
		o.MaxImbalance = n / 100
		if o.MaxImbalance < 1 {
			o.MaxImbalance = 1
		}
	}
	return o
}

// Bisect estimates the minimum bisection of g. It returns the cut edge
// count and the side assignment. Deterministic for a given seed.
func Bisect(g *graph.Graph, seed int64, opts Options) (int64, []bool) {
	opts = opts.withDefaults(g.N())
	base := fromGraph(g)
	var bestCut int64 = -1
	var bestPart []bool
	for s := 0; s < opts.Seeds; s++ {
		rng := rand.New(rand.NewSource(seed + int64(s)*104729))
		part := multilevel(base, rng, opts)
		cut := base.cutWeight(part)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			bestPart = part
		}
	}
	return bestCut, bestPart
}

func multilevel(w *wgraph, rng *rand.Rand, opts Options) []bool {
	// Coarsening phase.
	levels := []*wgraph{w}
	var matches [][]int32
	cur := w
	for cur.n > opts.CoarsenTo {
		next, match := cur.coarsen(rng)
		if next.n >= cur.n*95/100 {
			break // diminishing returns
		}
		levels = append(levels, next)
		matches = append(matches, match)
		cur = next
	}
	// Initial partition on the coarsest graph.
	coarsest := levels[len(levels)-1]
	part := coarsest.initialPartition(rng)
	coarsest.refineFM(part, opts.MaxImbalance, opts.RefinePasses)
	// Uncoarsen with refinement.
	for lvl := len(levels) - 2; lvl >= 0; lvl-- {
		fine := levels[lvl]
		match := matches[lvl]
		finePart := make([]bool, fine.n)
		for v := 0; v < fine.n; v++ {
			finePart[v] = part[match[v]]
		}
		fine.refineFM(finePart, opts.MaxImbalance, opts.RefinePasses)
		part = finePart
	}
	return part
}

// CutFraction returns the estimated fraction of edges crossing the
// minimum bisection: the Fig 12/13 metric.
func CutFraction(g *graph.Graph, seed int64, opts Options) float64 {
	if g.M() == 0 {
		return 0
	}
	cut, _ := Bisect(g, seed, opts)
	return float64(cut) / float64(g.M())
}
