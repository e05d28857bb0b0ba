package graph

// Unreachable is the distance reported for vertex pairs in different
// components.
const Unreachable = int32(-1)

// BFSScratch holds the reusable state of repeated BFS calls: the
// traversal queue, and the distance row Eccentricity and IsConnected
// fill. The zero value is ready to use; one scratch serves one
// goroutine. Every BFS method takes an optional scratch; nil gives the
// call a fresh one.
type BFSScratch struct {
	queue []int32
	dist  []int32
}

// BFSDistances returns the hop distance from src to every vertex, with
// Unreachable for vertices in other components. If dist is non-nil and
// has length N it is reused; with a scratch as well, repeated traversals
// allocate nothing once both have reached size N.
func (g *Graph) BFSDistances(src int, dist []int32, s *BFSScratch) []int32 {
	if s == nil {
		s = &BFSScratch{}
	}
	if dist == nil || len(dist) != g.n {
		dist = make([]int32, g.n)
	}
	for i := range dist {
		dist[i] = Unreachable
	}
	if cap(s.queue) < g.n {
		s.queue = make([]int32, 0, g.n)
	}
	queue := s.queue[:0]
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
			if dist[v] == Unreachable {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	s.queue = queue
	return dist
}

// Eccentricity returns the largest finite distance from src and whether all
// vertices were reachable. For the eccentricity of every vertex at once,
// Eccentricities (the bit-parallel variant) is ~64× cheaper.
func (g *Graph) Eccentricity(src int, s *BFSScratch) (ecc int32, connected bool) {
	if s == nil {
		s = &BFSScratch{}
	}
	s.dist = g.BFSDistances(src, s.dist, s)
	connected = true
	for _, d := range s.dist {
		if d == Unreachable {
			connected = false
			continue
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, connected
}

// PathStats aggregates the all-pairs shortest-path structure of a graph.
type PathStats struct {
	Diameter  int32   // largest finite pairwise distance
	AvgPath   float64 // mean distance over connected ordered pairs (excl. self)
	Connected bool    // every pair reachable
	Pairs     int64   // number of connected ordered pairs counted
}

// Diameter returns the graph diameter, or Unreachable when disconnected.
func (g *Graph) Diameter() int32 {
	s := g.AllPairsStats()
	if !s.Connected {
		return Unreachable
	}
	return s.Diameter
}

// IsConnected reports whether the graph has a single connected component.
// Loops that screen many candidate graphs (the randomized Jellyfish
// construction) pass one scratch to every call.
func (g *Graph) IsConnected(s *BFSScratch) bool {
	if g.n == 0 {
		return true
	}
	if s == nil {
		s = &BFSScratch{}
	}
	s.dist = g.BFSDistances(0, s.dist, s)
	for _, d := range s.dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// Components returns the vertex sets of the connected components, largest
// first.
func (g *Graph) Components() [][]int {
	comp := make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int
	queue := make([]int32, 0, g.n)
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		id := len(out)
		members := []int{s}
		comp[s] = id
		queue = queue[:0]
		queue = append(queue, int32(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(int(u)) {
				if comp[v] == -1 {
					comp[v] = id
					members = append(members, int(v))
					queue = append(queue, v)
				}
			}
		}
		out = append(out, members)
	}
	// Largest component first (stable for equal sizes).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && len(out[j]) > len(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// LargestComponent returns the subgraph induced on the largest connected
// component along with the mapping from new vertex ids to original ids.
func (g *Graph) LargestComponent() (*Graph, []int) {
	comps := g.Components()
	if len(comps) == 0 {
		return NewBuilder(g.name, 0).Build(), nil
	}
	members := comps[0]
	remap := make([]int32, g.n)
	for i := range remap {
		remap[i] = -1
	}
	for newID, old := range members {
		remap[old] = int32(newID)
	}
	b := NewBuilder(g.name, len(members))
	for newID, old := range members {
		if g.loops[old] {
			b.loops[newID] = true
		}
		for _, w := range g.Neighbors(old) {
			if nw := remap[w]; nw >= 0 && int32(newID) < nw {
				b.AddEdge(newID, int(nw))
			}
		}
	}
	return b.Build(), members
}
