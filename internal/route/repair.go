package route

import (
	"polarstar/internal/graph"
)

// Incremental degraded repair of all-pairs routing tables. A link failure
// invalidates only the rows of vertices for which the dead edge was on
// some shortest path; DropEdge re-runs BFS for exactly those and rewrites
// their dist and masks rows in place, instead of rebuilding the whole
// table (n BFS traversals) from scratch. Every other row keeps its
// distances and loses only the dead edge's adjacency slot at the two
// endpoints. The result is bit-identical to a from-scratch NewTable on
// the degraded graph — pinned by the repair property test.

// repairScratch is the reusable BFS state of repeated DropEdge calls.
type repairScratch struct {
	row []int32
	bfs graph.BFSScratch
}

// Clone returns an independent deep copy of the table for in-place
// repair: DropEdge on the clone leaves the original (typically shared by
// a Spec across runs) untouched.
func (t *Table) Clone() *Table {
	c := *t
	slab := append([]uint8(nil), t.Slab()...)
	c.dist, c.masks, c.rs = slab[:len(t.dist)], slab[len(t.dist):], nil
	return &c
}

// DropEdge removes the undirected edge (u, v) from the table's graph and
// repairs distances and masks incrementally. Dropping an edge the graph
// no longer has is a no-op. Removals may disconnect the graph;
// unreachable pairs read distance -1 and empty masks, exactly as a
// rebuild would produce.
func (t *Table) DropEdge(u, v int) {
	if !t.g.HasEdge(u, v) {
		return
	}
	n := t.g.N()
	newG := t.g.RemoveEdges([][2]int{{u, v}})
	if t.rs == nil {
		t.rs = &repairScratch{row: make([]int32, n)}
	}
	for s := 0; s < n; s++ {
		// The edge can lie on a shortest path from s only when dist(s,u)
		// and dist(s,v) differ by exactly one (they differ by at most one
		// while the edge exists — both finite or both unreachable — and an
		// equal pair never uses it). Distances are symmetric, so the same
		// s are the destinations whose masks row changes beyond columns u
		// and v, whose adjacency slots shifted.
		if t.dist[s*n+u] != t.dist[s*n+v] {
			t.fillRow(newG, s, t.rs.row, &t.rs.bfs)
		} else {
			t.fillEntry(newG, s, u)
			t.fillEntry(newG, s, v)
		}
	}
	t.g = newG
}
