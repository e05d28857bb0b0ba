package route

import (
	"fmt"

	"polarstar/internal/graph"
)

// Incremental degraded repair of all-pairs routing tables. A link failure
// invalidates only the rows of vertices for which the dead edge was on
// some shortest path; DropEdge recomputes exactly those, 64 per kernel
// batch, and rewrites their dist and masks rows in place, instead of
// rebuilding the whole table from scratch. Every other row keeps its
// distances and loses only the dead edge's adjacency slot at the two
// endpoints. The result is bit-identical to a from-scratch NewTable on
// the degraded graph — pinned by the repair property test.

// Clone returns an independent deep copy of the table for in-place
// repair: DropEdge on the clone leaves the original (typically shared by
// a Spec across runs) untouched.
func (t *Table) Clone() *Table {
	slab := append([]uint8(nil), t.Slab()...)
	c := *t
	c.fill = nil
	c.dist, c.masks = slab[:len(t.dist)], slab[len(t.dist):]
	return &c
}

// DropEdge removes the undirected edge (u, v) from the table's graph and
// repairs distances and masks incrementally. Dropping an edge the graph
// no longer has is a no-op. Removals may disconnect the graph;
// unreachable pairs read distance -1 and empty masks, exactly as a
// rebuild would produce.
func (t *Table) DropEdge(u, v int) {
	if !t.filled().g.HasEdge(u, v) {
		return
	}
	n := t.g.N()
	newG := t.g.RemoveEdges([][2]int{{u, v}})
	s := fillScratches.Get().(*fillScratch)
	defer fillScratches.Put(s)
	if len(s.dist) < n*64 {
		s.dist = make([]uint8, n*64)
	}
	s.dirty = s.dirty[:0]
	for d := 0; d < n; d++ {
		// The edge can lie on a shortest path from d only when dist(d,u)
		// and dist(d,v) differ by exactly one (they differ by at most one
		// while the edge exists — both finite or both unreachable — and an
		// equal pair never uses it). Distances are symmetric, so the same
		// d are the destinations whose masks row changes beyond columns u
		// and v, whose adjacency slots shifted.
		if t.dist[d*n+u] != t.dist[d*n+v] {
			s.dirty = append(s.dirty, int32(d))
		} else {
			t.fillEntry(newG, d, u)
			t.fillEntry(newG, d, v)
		}
	}
	// A batch's distances land vertex-major in the scratch; lane column
	// lane becomes dist row dirty[lane].
	for i := 0; i < len(s.dirty); i += 64 {
		batch := s.dirty[i:min(i+64, len(s.dirty))]
		if !t.fillBatch(newG, batch, s.dist, 64, s) {
			panic(fmt.Sprintf(tooLong, newG))
		}
		for lane, d := range batch {
			row := t.dist[int(d)*n:][:n]
			for w := range row {
				row[w] = s.dist[w*64+lane]
			}
		}
	}
	t.g = newG
}

// fillEntry recomputes masks entry (dst, cur) from dist row dst and cur's
// adjacency in g.
func (t *Table) fillEntry(g *graph.Graph, dst, cur int) {
	n := g.N()
	drow := t.dist[dst*n : dst*n+n]
	e := t.masks[(dst*n+cur)*t.mb:][:t.mb]
	clear(e)
	if d := drow[cur]; d != 0 && d != 0xff {
		for k, w := range g.Neighbors(cur) {
			if drow[w] == d-1 {
				e[k>>3] |= 1 << (k & 7)
			}
		}
	}
}
