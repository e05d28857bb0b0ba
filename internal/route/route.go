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

// Table is the all-pairs BFS routing engine: a distance table plus
// per-step next-hop sampling. Mode AllMinPaths samples uniformly among all
// minimal next hops at every step (the "all minpaths in routing tables"
// configuration used for Spectralfly and Bundlefly in §9.3); SinglePath
// always picks the lowest-numbered next hop (one fixed minpath per pair).
type Table struct {
	g    *graph.Graph
	dist []uint8 // n*n hop distances
	mode TableMode

	// Minimal-next-hop CSR (AllMinPaths only): nh[nhOff[src*n+dst] :
	// nhOff[src*n+dst+1]] lists the neighbors of src one hop closer to
	// dst, in ascending adjacency order. Precomputed at build time so
	// AppendPath samples a next hop in O(candidates) instead of scanning
	// every neighbor with a distance lookup per hop.
	nhOff []int32
	nh    []int32

	// Incremental-repair scratch (see repair.go), allocated on the first
	// DropEdge and reused across repairs.
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

// NewTable builds the all-pairs table for g. Graphs are limited to 65534
// vertices and diameter 254 (far beyond every evaluated configuration).
func NewTable(g *graph.Graph, mode TableMode) *Table {
	return NewTableInto(g, mode, nil)
}

// NewTableInto is NewTable reusing slab as the n×n distance backing when
// it has sufficient capacity (pass the Slab of a dead Table to rebuild
// routing tables across fault trials without reallocating).
func NewTableInto(g *graph.Graph, mode TableMode, slab []uint8) *Table {
	n := g.N()
	if cap(slab) < n*n {
		slab = make([]uint8, n*n)
	}
	t := &Table{g: g, dist: slab[:n*n], mode: mode}
	// Parallel BFS over sources.
	parallelFor(n, func(src int, row []int32, scratch *graph.BFSScratch) {
		g.BFSDistancesScratch(src, row, scratch)
		base := src * n
		for v, d := range row {
			if d < 0 {
				t.dist[base+v] = 0xff
			} else {
				t.dist[base+v] = uint8(d)
			}
		}
	})
	if mode == AllMinPaths {
		t.buildNextHops()
	}
	return t
}

// buildNextHops fills the minimal-next-hop CSR: a parallel count pass, a
// serial prefix sum, then a parallel fill pass. Both passes stream the
// source's and each neighbor's distance rows sequentially; the fill
// keeps a per-destination cursor in the worker's scratch row.
func (t *Table) buildNextHops() {
	n := t.g.N()
	t.nhOff = make([]int32, n*n+1)
	parallelFor(n, func(src int, _ []int32, _ *graph.BFSScratch) {
		base := src * n
		cnt := t.nhOff[base+1 : base+n+1]
		sRow := t.dist[base : base+n]
		for _, w := range t.g.Neighbors(src) {
			wRow := t.dist[int(w)*n : int(w)*n+n]
			for dst, d := range sRow {
				if d != 0 && d != 0xff && wRow[dst] == d-1 {
					cnt[dst]++
				}
			}
		}
	})
	var total int32
	for i := 1; i < len(t.nhOff); i++ {
		total += t.nhOff[i]
		t.nhOff[i] = total
	}
	t.nh = make([]int32, total)
	parallelFor(n, func(src int, pos []int32, _ *graph.BFSScratch) {
		base := src * n
		copy(pos, t.nhOff[base:base+n])
		sRow := t.dist[base : base+n]
		for _, w := range t.g.Neighbors(src) {
			wRow := t.dist[int(w)*n : int(w)*n+n]
			for dst, d := range sRow {
				if d != 0 && d != 0xff && wRow[dst] == d-1 {
					t.nh[pos[dst]] = w
					pos[dst]++
				}
			}
		}
	})
}

// Slab exposes the distance backing for reuse via NewTableInto. The table
// must not be used after its slab has been handed to a new table.
func (t *Table) Slab() []uint8 { return t.dist }

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

// AppendPath implements Engine.
func (t *Table) AppendPath(buf []int, src, dst int, rng *rand.Rand) []int {
	if src == dst {
		return buf
	}
	n := t.g.N()
	if t.dist[src*n+dst] == 0xff {
		return buf
	}
	buf = append(buf, src)
	cur := src
	if t.mode == AllMinPaths {
		// O(candidates) per hop off the precomputed CSR. The reservoir
		// draw sequence — rng.Intn(k) per candidate in ascending
		// adjacency order — matches the neighbor-scan implementation
		// exactly, so paths are byte-identical under a fixed seed.
		for cur != dst {
			row := t.nh[t.nhOff[cur*n+dst]:t.nhOff[cur*n+dst+1]]
			pick := row[0]
			for k := 1; k <= len(row); k++ {
				if rng.Intn(k) == 0 {
					pick = row[k-1]
				}
			}
			cur = int(pick)
			buf = append(buf, cur)
		}
		return buf
	}
	for cur != dst {
		d := t.dist[cur*n+dst]
		var pick int32 = -1
		for _, w := range t.g.Neighbors(cur) {
			if t.dist[int(w)*n+dst] == d-1 {
				pick = w
				break
			}
		}
		cur = int(pick)
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
