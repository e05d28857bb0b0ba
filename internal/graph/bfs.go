package graph

// Unreachable is the distance reported for vertex pairs in different
// components.
const Unreachable = int32(-1)

// BFSScratch holds the reusable state of repeated BFS calls: the
// traversal queue, and the distance row IsConnected fills. The zero
// value is ready to use; one scratch serves one goroutine. Every BFS
// method takes an optional scratch; nil gives the call a fresh one.
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
