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
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"polarstar/internal/graph"
)

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

// RNGFree is implemented by engines whose AppendPath never reads its rng
// argument. A caller sharing one stream across several routes may then
// skip a route it would have computed only to keep the stream's draws in
// step.
type RNGFree interface {
	Engine
	IgnoresRNG()
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
	fill *sync.Once // NewTableOnDemand: builds dist and masks on first use (nil: built eagerly)

	dist []uint8 // n*n hop distances, 0xff unreachable

	// Minimal next hops as adjacency-slot bitmasks, destination-major:
	// entry (dst, cur) is the mb bytes at masks[(dst*n+cur)*mb:], and bit
	// k of it says Neighbors(cur)[k] is one hop closer to dst. A path to
	// dst reads one row of n*mb bytes, one entry per hop; an empty entry
	// means cur == dst or dst unreachable. dist and masks share one
	// backing (Slab).
	masks []uint8
	mb    int // bytes per entry: ⌈max degree / 8⌉ of the graph the table was built on
}

// TableMode selects minpath diversity for Table engines.
type TableMode int

const (
	// SinglePath deterministically uses one minimal path per pair.
	SinglePath TableMode = iota
	// AllMinPaths samples uniformly among minimal next hops per step.
	AllMinPaths
)

// NewTable builds the all-pairs table for g. Distances are limited to
// 254 (far beyond every evaluated configuration); a graph with a longer
// shortest path panics. The build is eager: callers that time it
// (route.table_build in the benchmark) or rebuild tables per fault trial
// pay it here. A spec that may never route uses NewTableOnDemand.
func NewTable(g *graph.Graph, mode TableMode) *Table {
	return NewTableInto(g, mode, nil)
}

// NewTableInto is NewTable reusing slab as the table backing when it has
// sufficient capacity (pass the Slab of a dead Table to rebuild routing
// tables across fault trials without reallocating). It builds eagerly,
// as NewTable does.
func NewTableInto(g *graph.Graph, mode TableMode, slab []uint8) *Table {
	t := &Table{g: g, mode: mode}
	t.build(slab)
	return t
}

// NewTableOnDemand returns the table NewTable would build, filled by the
// same code on the first call of any method that reads routing state
// (concurrent first callers wait for the one build). Structural tools
// construct specs — the Fig 12/14 figures, bisection, graph search —
// without ever routing on them, and the all-pairs fill is most of such
// a spec's construction time and memory. A graph with a shortest path
// beyond 254 hops panics on first use instead of here.
func NewTableOnDemand(g *graph.Graph, mode TableMode) *Table {
	return &Table{g: g, mode: mode, fill: new(sync.Once)}
}

// filled returns t with its routing state built; every reader of dist
// or masks goes through it.
func (t *Table) filled() *Table {
	if t.fill != nil {
		t.fillOnce() // out of line, so filled inlines into every reader
	}
	return t
}

func (t *Table) fillOnce() { t.fill.Do(func() { t.build(nil) }) }

// build fills the table from t.g into slab (reallocated when too small).
func (t *Table) build(slab []uint8) {
	g := t.g
	n := g.N()
	mb := (g.MaxDegree() + 7) / 8
	if size := n * n * (1 + mb); cap(slab) < size {
		slab = make([]uint8, size)
	}
	t.mb, t.dist, t.masks = mb, slab[:n*n], slab[n*n:n*n*(1+mb)]
	// Distances are symmetric, so the kernel batch from destinations
	// base…base+63 writes their dist columns in place (vertex-major,
	// stride n) and its arc record gives their masks rows. Batches are
	// striped over GOMAXPROCS pool tasks, each owning one scratch.
	ids := make([]int32, n)
	for v := range ids {
		ids[v] = int32(v)
	}
	workers := min(runtime.GOMAXPROCS(0), (n+63)/64)
	var long atomic.Bool
	graph.NewEvalPool(workers).Run(workers, nil, func(w int, _ *graph.BitBFSScratch) {
		s := fillScratches.Get().(*fillScratch)
		defer fillScratches.Put(s)
		for base := 64 * w; base < n; base += 64 * workers {
			if !t.fillBatch(g, ids[base:min(base+64, n)], t.dist[base:], n, s) {
				long.Store(true)
				return
			}
		}
	})
	if long.Load() {
		panic(fmt.Sprintf(tooLong, g))
	}
}

// tooLong is the panic of a table whose graph has a shortest path that a
// dist byte cannot hold.
const tooLong = "route: %v has a shortest path longer than 254 hops, the table limit"

// fillScratch is one goroutine's state for fillBatch, recycled across
// table builds and repairs through fillScratches.
type fillScratch struct {
	bfs   graph.BitBFSScratch
	arcs  []uint64
	dirty []int32 // DropEdge's dirty destinations
	dist  []uint8 // DropEdge's vertex-major batch distances
}

var fillScratches = sync.Pool{New: func() any { return new(fillScratch) }}

// fillBatch recomputes the masks rows of up to 64 destinations dsts from
// one kernel batch on g, which also writes their distances into dist
// (vertex-major with the given stride, see graph.BitBFSBatchArcs). It
// returns false, rows unspecified, if a distance exceeds 254.
func (t *Table) fillBatch(g *graph.Graph, dsts []int32, dist []uint8, stride int, s *fillScratch) bool {
	if len(s.arcs) < g.NumChannels() {
		s.arcs = make([]uint64, g.NumChannels())
	}
	if _, ok := g.BitBFSBatchArcs(dsts, &s.bfs, dist, stride, s.arcs); !ok {
		return false
	}
	// Bit lane of arcs[c], c the k-th arc out of cur, is bit k of entry
	// (dsts[lane], cur): eight slots' words transpose to 64 entry bytes.
	n, mb := g.N(), t.mb
	for cur := 0; cur < n; cur++ {
		slots := s.arcs[g.FirstChannel(cur):][:g.Degree(cur)]
		for i := 0; i < mb; i++ {
			var w [8]uint64
			copy(w[:], slots[min(8*i, len(slots)):])
			transposeSlots(&w)
			for lane, d := range dsts {
				t.masks[(int(d)*n+cur)*mb+i] = uint8(w[lane>>3] >> (8 * (lane & 7)))
			}
		}
	}
	return true
}

// transposeSlots turns eight slot words (bit lane of w[k]: slot k steps
// closer to lane's destination) into 64 entry bytes (byte lane of w read
// little-endian: bit k set for each such slot k). It is an 8×8 byte
// transpose followed by an 8×8 bit transpose of every word.
func transposeSlots(w *[8]uint64) {
	for i := 0; i < 4; i++ {
		t := (w[i]>>32 ^ w[i+4]) & 0x00000000ffffffff
		w[i] ^= t << 32
		w[i+4] ^= t
	}
	for _, i := range [4]int{0, 1, 4, 5} {
		t := (w[i]>>16 ^ w[i+2]) & 0x0000ffff0000ffff
		w[i] ^= t << 16
		w[i+2] ^= t
	}
	for i := 0; i < 8; i += 2 {
		t := (w[i]>>8 ^ w[i+1]) & 0x00ff00ff00ff00ff
		w[i] ^= t << 8
		w[i+1] ^= t
	}
	for p, x := range w {
		t := (x ^ x>>7) & 0x00aa00aa00aa00aa
		x ^= t ^ t<<7
		t = (x ^ x>>14) & 0x0000cccc0000cccc
		x ^= t ^ t<<14
		t = (x ^ x>>28) & 0x00000000f0f0f0f0
		x ^= t ^ t<<28
		w[p] = x
	}
}

// Slab exposes the table backing (distances and masks) for reuse via
// NewTableInto (dist is the head of that backing, masks the rest of its
// length). The table must not be used after its slab has been handed to a
// new table.
func (t *Table) Slab() []uint8 {
	t.filled()
	return t.dist[:len(t.dist)+len(t.masks)]
}

// Mode returns the table's minpath-diversity mode.
func (t *Table) Mode() TableMode { return t.mode }

// MaxDist returns the maximum finite pairwise distance — the diameter of
// the largest-diameter connected component. Degraded-topology sweeps use
// it as the exact path-length bound (the intact diameter no longer
// applies once links fail).
func (t *Table) MaxDist() int {
	max := 0
	for _, d := range t.filled().dist {
		if d != 0xff && int(d) > max {
			max = int(d)
		}
	}
	return max
}

// Dist implements Engine.
func (t *Table) Dist(src, dst int) int {
	d := t.filled().dist[src*t.g.N()+dst]
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
	mb, single := t.filled().mb, t.mode == SinglePath
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
