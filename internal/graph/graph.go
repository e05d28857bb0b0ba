// Package graph provides the undirected-graph substrate shared by every
// topology, routing and analysis component in the PolarStar reproduction.
//
// Graphs are immutable once built (construct with a Builder), which makes
// them safe to share across the worker pools used by the parallel
// all-pairs algorithms and the network simulator.
//
// Storage is a CSR (compressed sparse row): one flat sorted neighbor
// array plus per-vertex offsets. Every directed arc u→v therefore has a
// dense integer id — its "channel id" — which the simulator and the
// analytic link-load accumulators use to index per-channel state with
// plain arrays instead of hash maps (see ChannelID).
//
// Self-loops get first-class treatment because Erdős–Rényi polarity graphs
// have self-orthogonal (quadric) vertices: the loop does not contribute a
// usable network link, but Property R walks and the star product both
// consume loop information (§6.1.2 of the paper).
package graph

import (
	"fmt"
	"slices"
)

// Graph is an immutable simple undirected graph with optional self-loop
// annotations. Vertices are dense integers [0, N).
type Graph struct {
	name   string
	n      int
	off    []int32 // CSR offsets, len n+1
	nbr    []int32 // CSR neighbor array (sorted per vertex), len 2*nEdges
	loops  []bool  // loops[v]: v carries a self-loop annotation
	nEdges int     // number of undirected non-loop edges
	nLoops int
	adj    []uint64 // n×n adjacency bitmap for small graphs (nil above adjBitmapMax)
}

// adjBitmapMax bounds the vertex count up to which Build materializes the
// n×n adjacency bitmap behind O(1) HasEdge: 2048² bits = 512 KB. Routing
// case analyses hammer HasEdge on small structure/supernode graphs and on
// the paper-scale networks (≤ ~1100 routers); huge generated graphs fall
// back to the CSR binary search.
const adjBitmapMax = 2048

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	name  string
	n     int
	keys  []int64 // min(u,v)<<32 | max(u,v) per AddEdge, duplicates included
	loops []bool
}

// NewBuilder creates a builder for a graph on n vertices.
func NewBuilder(name string, n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{name: name, n: n, loops: make([]bool, n)}
}

// AddEdge inserts the undirected edge {u, v}. Inserting an existing edge is
// a no-op; u == v records a self-loop annotation instead of an edge.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		b.loops[u] = true
		return
	}
	b.keys = append(b.keys, int64(min(u, v))<<32|int64(max(u, v)))
}

// Build finalizes the graph. The builder must not be used afterwards.
// Two counting-sort passes (by v, then stably by u) order the keys by
// (u, v) and Compact drops duplicates; emitting the CSR in key order then
// leaves every neighbour list sorted, as FilterEdgesScratch's second pass
// does.
func (b *Builder) Build() *Graph {
	keys, buf := b.keys, make([]int64, len(b.keys))
	pos := make([]int32, b.n+1)
	for _, shift := range [2]uint{0, 32} {
		clear(pos)
		for _, k := range keys {
			pos[k>>shift&0xffffffff+1]++
		}
		for v := 0; v < b.n; v++ {
			pos[v+1] += pos[v]
		}
		for _, k := range keys {
			d := k >> shift & 0xffffffff
			buf[pos[d]] = k
			pos[d]++
		}
		keys, buf = buf, keys
	}
	keys = slices.Compact(keys)
	off := make([]int32, b.n+1)
	for _, k := range keys {
		off[k>>32+1]++
		off[k&0xffffffff+1]++
	}
	for v := 0; v < b.n; v++ {
		off[v+1] += off[v]
	}
	nbr := make([]int32, off[b.n])
	fill := slices.Clone(off[:b.n])
	for _, k := range keys {
		u, v := k>>32, k&0xffffffff
		nbr[fill[u]] = int32(v)
		nbr[fill[v]] = int32(u)
		fill[u]++
		fill[v]++
	}
	nLoops := 0
	for _, l := range b.loops {
		if l {
			nLoops++
		}
	}
	g := &Graph{
		name:   b.name,
		n:      b.n,
		off:    off,
		nbr:    nbr,
		loops:  b.loops,
		nEdges: len(keys),
		nLoops: nLoops,
	}
	g.buildAdjBitmap()
	return g
}

// buildAdjBitmap fills the O(1) HasEdge bitmap from the CSR (loops are
// excluded, matching HasEdge semantics) when the graph is small enough.
func (g *Graph) buildAdjBitmap() {
	if g.n == 0 || g.n > adjBitmapMax {
		return
	}
	g.adj = make([]uint64, (g.n*g.n+63)/64)
	for u := 0; u < g.n; u++ {
		base := u * g.n
		for _, v := range g.Neighbors(u) {
			bit := base + int(v)
			g.adj[bit>>6] |= 1 << (bit & 63)
		}
	}
}

// Name returns the label assigned at construction.
func (g *Graph) Name() string { return g.name }

// N returns the number of vertices (the order of the graph).
func (g *Graph) N() int { return g.n }

// M returns the number of undirected non-loop edges.
func (g *Graph) M() int { return g.nEdges }

// NumLoops returns the number of self-loop annotations.
func (g *Graph) NumLoops() int { return g.nLoops }

// Degree returns the non-loop degree of v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// HasLoop reports whether v carries a self-loop annotation.
func (g *Graph) HasLoop(v int) bool { return g.loops[v] }

// Neighbors returns the sorted neighbour list of v. The slice is shared
// with the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.nbr[g.off[v]:g.off[v+1]] }

// NumChannels returns the number of directed channels (arcs): 2·M().
// Channel ids are dense in [0, NumChannels()).
func (g *Graph) NumChannels() int { return len(g.nbr) }

// FirstChannel returns the channel id of u's first outgoing arc; the k-th
// neighbor of u (in Neighbors order) is reached over channel
// FirstChannel(u)+k.
func (g *Graph) FirstChannel(u int) int { return int(g.off[u]) }

// ChannelID returns the dense id of the directed channel u→v, or -1 when
// {u,v} is not an edge. Ids follow CSR order: all arcs out of u are
// contiguous, sorted by destination.
func (g *Graph) ChannelID(u, v int) int {
	lo, hi := g.off[u], g.off[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if g.nbr[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < g.off[u+1] && g.nbr[lo] == int32(v) {
		return int(lo)
	}
	return -1
}

// ChannelTo returns the destination vertex of channel c.
func (g *Graph) ChannelTo(c int) int { return int(g.nbr[c]) }

// HasEdge reports whether {u,v} is an edge (loops excluded).
func (g *Graph) HasEdge(u, v int) bool {
	if g.adj != nil {
		bit := u*g.n + v
		return g.adj[bit>>6]&(1<<(bit&63)) != 0
	}
	if u == v {
		return false
	}
	return g.ChannelID(u, v) >= 0
}

// MaxDegree returns the largest non-loop degree; 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	m := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// MinDegree returns the smallest non-loop degree; 0 for an empty graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	m := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if d := g.Degree(v); d < m {
			m = d
		}
	}
	return m
}

// IsRegular reports whether every vertex has the same non-loop degree.
func (g *Graph) IsRegular() bool { return g.n == 0 || g.MaxDegree() == g.MinDegree() }

// Edges returns all undirected edges as pairs with u < v, sorted.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.nEdges)
	for u := 0; u < g.n; u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) > u {
				out = append(out, [2]int{u, int(w)})
			}
		}
	}
	return out
}

// FilterScratch holds the reusable allocations of FilterEdgesScratch.
// One scratch serves one filtering loop at a time; the zero value is
// ready to use.
type FilterScratch struct {
	keep []uint64 // bitmap over the u<v arcs of the source graph
	deg  []int32
	fill []int32
	off  []int32
	nbr  []int32
}

// FilterEdges returns a copy of g retaining exactly the edges for which
// keep returns true. keep is called once per undirected edge, with u < v,
// in CSR order; c is the channel id of the u→v arc, so callers can key
// per-edge state by channel id without any lookup. Loop annotations are
// preserved. The CSR of the copy is built directly in two passes — no
// intermediate edge map.
func (g *Graph) FilterEdges(keep func(c, u, v int) bool) *Graph {
	return g.FilterEdgesScratch(new(FilterScratch), keep)
}

// FilterEdgesScratch is FilterEdges reusing the allocations of s across
// calls. The returned graph aliases s: it is invalidated by the next
// FilterEdgesScratch call with the same scratch. Use it in tight loops
// that build, measure and discard subgraphs (the fault sweep's sampled
// failure fractions).
func (g *Graph) FilterEdgesScratch(s *FilterScratch, keep func(c, u, v int) bool) *Graph {
	nc := len(g.nbr)
	if cap(s.keep) < (nc+63)/64 {
		s.keep = make([]uint64, (nc+63)/64)
	}
	s.keep = s.keep[:(nc+63)/64]
	for i := range s.keep {
		s.keep[i] = 0
	}
	if cap(s.deg) < g.n {
		s.deg = make([]int32, g.n)
		s.fill = make([]int32, g.n)
	}
	s.deg, s.fill = s.deg[:g.n], s.fill[:g.n]
	for i := range s.deg {
		s.deg[i] = 0
		s.fill[i] = 0
	}
	// Pass 1: decide each u<v edge once, record the verdict, count degrees.
	kept := 0
	for u := 0; u < g.n; u++ {
		for c := g.off[u]; c < g.off[u+1]; c++ {
			v := int(g.nbr[c])
			if v <= u {
				continue
			}
			if keep(int(c), u, v) {
				s.keep[c>>6] |= 1 << (uint(c) & 63)
				s.deg[u]++
				s.deg[v]++
				kept++
			}
		}
	}
	if cap(s.off) < g.n+1 {
		s.off = make([]int32, g.n+1)
	}
	s.off = s.off[:g.n+1]
	s.off[0] = 0
	for v := 0; v < g.n; v++ {
		s.off[v+1] = s.off[v] + s.deg[v]
	}
	if cap(s.nbr) < 2*kept {
		s.nbr = make([]int32, 2*kept)
	}
	s.nbr = s.nbr[:2*kept]
	// Pass 2: emit kept edges in (u asc, v asc) order. Vertex x receives
	// its smaller neighbors first (while processing each u < x, u
	// ascending) and its larger ones after (while processing u == x), so
	// every output list comes out sorted without a sort pass.
	for u := 0; u < g.n; u++ {
		for c := g.off[u]; c < g.off[u+1]; c++ {
			v := int(g.nbr[c])
			if v <= u || s.keep[c>>6]&(1<<(uint(c)&63)) == 0 {
				continue
			}
			s.nbr[s.off[u]+s.fill[u]] = int32(v)
			s.nbr[s.off[v]+s.fill[v]] = int32(u)
			s.fill[u]++
			s.fill[v]++
		}
	}
	return &Graph{
		name:   g.name,
		n:      g.n,
		off:    s.off,
		nbr:    s.nbr,
		loops:  g.loops, // immutable: safe to share
		nEdges: kept,
		nLoops: g.nLoops,
	}
}

// RemoveEdges returns a copy of g with the given undirected edges deleted.
// Unknown edges are ignored. Loop annotations are preserved.
func (g *Graph) RemoveEdges(edges [][2]int) *Graph {
	drop := make(map[int64]struct{}, len(edges))
	key := func(u, v int) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)<<32 | int64(v)
	}
	for _, e := range edges {
		drop[key(e[0], e[1])] = struct{}{}
	}
	return g.FilterEdges(func(_, u, v int) bool {
		_, gone := drop[key(u, v)]
		return !gone
	})
}

func (g *Graph) String() string {
	return fmt.Sprintf("%s{n=%d m=%d loops=%d}", g.name, g.n, g.nEdges, g.nLoops)
}
