// Package route implements the routing engines of the evaluation (§9.2,
// §9.3): table-based minimal routing with single- or all-minpath
// selection, the storage-light analytic PolarStar minpath router, and
// topology-specific minimal routers for Dragonfly, HyperX, Fat-tree and
// Megafly. Valiant/UGAL path selection is layered on top of any Engine.
//
// Every engine has one path API, AppendPath, which appends the path onto
// a caller-owned scratch buffer. The cycle simulator and the analytic
// link-load sweeps route millions of packets through it, so steady-state
// routing performs zero heap allocations (see the testing.AllocsPerRun
// regression tests). Path is the convenience form for one-off callers.
package route

import (
	"math/bits"
	"math/rand"
	"runtime"

	"polarstar/internal/graph"
)

func workerCount(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Engine computes router-level paths through one topology.
type Engine interface {
	// AppendPath appends a minimal path from src to dst, as a vertex
	// sequence including both endpoints, onto buf and returns the
	// extended slice (buf unchanged for src == dst or unreachable pairs).
	// Engines with path diversity use rng to sample among minimal paths;
	// deterministic engines ignore it. Implementations perform no heap
	// allocation beyond growing buf.
	AppendPath(buf []int, src, dst int, rng *rand.Rand) []int
	// Dist returns the hop distance from src to dst.
	Dist(src, dst int) int
}

// Path returns e's path from src to dst in a freshly allocated slice
// (nil for src == dst or unreachable pairs).
func Path(e Engine, src, dst int, rng *rand.Rand) []int {
	return e.AppendPath(nil, src, dst, rng)
}

// Table is the all-pairs BFS routing engine: a distance table plus a
// minimal-next-hop table. Mode AllMinPaths samples uniformly among all
// minimal next hops at every step (the "all minpaths in routing tables"
// configuration used for Spectralfly and Bundlefly in §9.3); SinglePath
// always picks the lowest-numbered next hop (one fixed minpath per pair).
type Table struct {
	g    *graph.Graph
	mode TableMode
	dist []uint8 // n*n hop distances, 0xff unreachable

	// Minimal next hops as adjacency-slot bitmasks, destination-major:
	// entry (dst, cur) is the mb bytes at masks[(dst*n+cur)*mb:], and bit
	// k of it says Neighbors(cur)[k] is one hop closer to dst. A path to
	// dst reads one row of n*mb bytes, one entry per hop; an empty entry
	// means cur == dst or dst unreachable. dist and masks share one
	// backing (Slab).
	masks []uint8
	mb    int // bytes per entry: ⌈max degree / 8⌉ of the graph the table was built on

	// Reusable BFS state of DropEdge (repair.go), allocated on first use.
	rs *repairScratch
}

// TableMode selects minpath diversity for Table engines.
type TableMode int

const (
	// SinglePath deterministically uses one minimal path per pair.
	SinglePath TableMode = iota
	// AllMinPaths samples uniformly among minimal next hops per step.
	AllMinPaths
)

// NewTable builds the all-pairs table for g. Graphs are limited to
// diameter 254 (far beyond every evaluated configuration).
func NewTable(g *graph.Graph, mode TableMode) *Table {
	return NewTableInto(g, mode, nil)
}

// NewTableInto is NewTable reusing slab as the table backing when it has
// sufficient capacity (pass the Slab of a dead Table to rebuild routing
// tables across fault trials without reallocating).
func NewTableInto(g *graph.Graph, mode TableMode, slab []uint8) *Table {
	n := g.N()
	mb := (g.MaxDegree() + 7) / 8
	if size := n * n * (1 + mb); cap(slab) < size {
		slab = make([]uint8, size)
	}
	t := &Table{g: g, mode: mode, mb: mb, dist: slab[:n*n], masks: slab[n*n : n*n*(1+mb)]}
	// Distances are symmetric, so the BFS row of dst is both dist row dst
	// and everything masks row dst depends on: one parallel pass over
	// destinations fills both.
	parallelFor(n, func(dst int, row []int32, scratch *graph.BFSScratch) {
		t.fillRow(g, dst, row, scratch)
	})
	return t
}

// fillRow recomputes dist row v and masks row v from one BFS of g.
func (t *Table) fillRow(g *graph.Graph, v int, row []int32, scratch *graph.BFSScratch) {
	n := g.N()
	g.BFSDistancesScratch(v, row, scratch)
	drow := t.dist[v*n : v*n+n]
	for w, d := range row {
		if d < 0 {
			drow[w] = 0xff
		} else {
			drow[w] = uint8(d)
		}
	}
	for cur := 0; cur < n; cur++ {
		t.fillEntry(g, v, cur)
	}
}

// fillEntry recomputes masks entry (dst, cur) from dist row dst and cur's
// adjacency in g.
func (t *Table) fillEntry(g *graph.Graph, dst, cur int) {
	n := g.N()
	drow := t.dist[dst*n : dst*n+n]
	e := t.masks[(dst*n+cur)*t.mb:][:t.mb]
	nbr := g.Neighbors(cur)
	d := drow[cur]
	if d == 0 || d == 0xff {
		nbr = nil
	}
	for i := range e {
		var b, bit uint8 = 0, 1
		for _, w := range nbr[min(i*8, len(nbr)):min(i*8+8, len(nbr))] {
			// Branch-free "if drow[w] == d-1 { b |= bit }": the build
			// spends most of its time here and the outcome is unpredictable.
			b |= bit & uint8(int32(uint32(drow[w]^(d-1))-1)>>31)
			bit <<= 1
		}
		e[i] = b
	}
}

// Slab exposes the table backing (distances and masks) for reuse via
// NewTableInto (dist is the head of that backing, masks the rest of its
// length). The table must not be used after its slab has been handed to a
// new table.
func (t *Table) Slab() []uint8 { return t.dist[:len(t.dist)+len(t.masks)] }

// Mode returns the table's minpath-diversity mode.
func (t *Table) Mode() TableMode { return t.mode }

// MaxDist returns the maximum finite pairwise distance — the diameter of
// the largest-diameter connected component. Degraded-topology sweeps use
// it as the exact path-length bound (the intact diameter no longer
// applies once links fail).
func (t *Table) MaxDist() int {
	max := 0
	for _, d := range t.dist {
		if d != 0xff && int(d) > max {
			max = int(d)
		}
	}
	return max
}

// Dist implements Engine.
func (t *Table) Dist(src, dst int) int {
	d := t.dist[src*t.g.N()+dst]
	if d == 0xff {
		return -1
	}
	return int(d)
}

// AppendPath implements Engine: one entry of masks row dst per hop.
// AllMinPaths draws rng.Intn(k) for the k-th candidate in ascending slot
// order and keeps it on 0 — a reservoir sample, and the draw sequence
// every golden is pinned to; SinglePath takes the first.
func (t *Table) AppendPath(buf []int, src, dst int, rng *rand.Rand) []int {
	if src == dst {
		return buf
	}
	mb, single := t.mb, t.mode == SinglePath
	base := dst * t.g.N() * mb
	buf = append(buf, src)
	for cur := src; cur != dst; {
		slot, k := -1, int32(0)
		for i, b := range t.masks[base+cur*mb:][:mb] {
			if single && b != 0 {
				slot = i*8 + bits.TrailingZeros8(b)
				break
			}
			for ; b != 0; b &= b - 1 {
				// Intn(k) is Int31n(k) behind one more call; the test
				// oracle draws with Intn, so the streams stay tied.
				if k++; rng.Int31n(k) == 0 {
					slot = i*8 + bits.TrailingZeros8(b)
				}
			}
		}
		if slot < 0 {
			return buf[:len(buf)-1] // only at src: dst is unreachable
		}
		cur = t.g.ChannelTo(t.g.FirstChannel(cur) + slot)
		buf = append(buf, cur)
	}
	return buf
}

// Graph returns the underlying graph.
func (t *Table) Graph() *graph.Graph { return t.g }

// PathValid reports whether path is a valid walk in g from its first to
// its last element.
func PathValid(g *graph.Graph, path []int) bool {
	for i := 0; i+1 < len(path); i++ {
		if !g.HasEdge(path[i], path[i+1]) {
			return false
		}
	}
	return true
}

// parallelFor runs fn(i, row, scratch) for i in [0, n) across GOMAXPROCS
// workers; each worker owns one reusable distance row and BFS scratch.
func parallelFor(n int, fn func(int, []int32, *graph.BFSScratch)) {
	workers := workerCount(n)
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			row := make([]int32, n)
			var scratch graph.BFSScratch
			for i := w; i < n; i += workers {
				fn(i, row, &scratch)
			}
			done <- struct{}{}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}
