package route

import (
	"errors"
	"fmt"
	"math/rand"

	"polarstar/internal/graph"
)

// Edge-disjoint spanning trees (EDSTs). The paper's companion work
// (Dawkins et al., "Edge-Disjoint Spanning Trees on Star-Product
// Networks", cited in §6.1.1) uses EDSTs for in-network collectives:
// k disjoint trees carry k parallel reduction flows, multiplying
// collective bandwidth. Two greedy extractors are provided — a
// randomized-Kruskal one that spreads degree usage (the escape-router
// construction) and a BFS one that keeps trees shallow (the multipath
// lane construction) — neither always reaches the Nash–Williams optimum
// but both are simple, fast and deterministic per seed.

// Typed extraction errors, checkable with errors.Is.
var (
	// ErrTreeCount rejects a non-positive maxTrees: the callers that used
	// to pass 0 for "as many as possible" now pass an explicit bound
	// (e.g. the graph's degree — no graph yields more EDSTs than that).
	ErrTreeCount = errors.New("route: maxTrees must be positive")
	// ErrDisconnected means the graph has no spanning tree at all (empty
	// or disconnected), so no EDST extraction is possible.
	ErrDisconnected = errors.New("route: graph has no spanning tree")
)

// SpanningTree is a rooted tree over the full vertex set: Parent[v] is
// v's parent router (-1 at the root).
type SpanningTree struct {
	Root   int
	Parent []int32
}

// Depths returns every vertex's distance from the root, -1 for vertices
// the tree does not reach (parent -2). Each vertex climbs to the first
// ancestor of known depth, so the whole array costs one pass.
func (t *SpanningTree) Depths() []int32 {
	depth := make([]int32, len(t.Parent))
	for i := range depth {
		depth[i] = -1
	}
	var chain []int32
	for v := range t.Parent {
		chain = chain[:0]
		u := int32(v)
		for depth[u] < 0 && t.Parent[u] >= 0 {
			chain = append(chain, u)
			u = t.Parent[u]
		}
		if depth[u] < 0 {
			if t.Parent[u] == -2 {
				continue
			}
			depth[u] = 0 // the root
		}
		for i := len(chain) - 1; i >= 0; i-- {
			depth[chain[i]] = depth[t.Parent[chain[i]]] + 1
		}
	}
	return depth
}

// maxDepth returns the largest entry of a Depths array (0 when empty).
func maxDepth(depth []int32) int {
	deepest := int32(0)
	for _, d := range depth {
		deepest = max(deepest, d)
	}
	return int(deepest)
}

// Edges returns the undirected tree edges (parent, child) in child order.
func (t *SpanningTree) Edges() [][2]int {
	out := make([][2]int, 0, len(t.Parent)-1)
	for v, p := range t.Parent {
		if p >= 0 {
			out = append(out, [2]int{int(p), v})
		}
	}
	return out
}

// checkExtractable validates the shared preconditions of both
// extractors: a positive tree bound and a root inside a non-empty graph.
func checkExtractable(g *graph.Graph, root, maxTrees int) error {
	if maxTrees <= 0 {
		return fmt.Errorf("%w, got %d", ErrTreeCount, maxTrees)
	}
	if g.N() == 0 {
		return fmt.Errorf("%w (empty graph)", ErrDisconnected)
	}
	if root < 0 || root >= g.N() {
		return fmt.Errorf("route: root %d outside graph with %d vertices", root, g.N())
	}
	return nil
}

// EdgeDisjointSpanningTrees extracts up to maxTrees pairwise
// edge-disjoint spanning trees rooted at root. Each tree is a
// randomized-Kruskal spanning tree over the edges unused by earlier
// trees — the random edge order spreads degree usage, so a high-degree
// vertex does not donate all its edges to the first tree. Deterministic
// for a given seed. maxTrees <= 0 is ErrTreeCount; a graph with no
// spanning tree at all (empty or disconnected) is ErrDisconnected.
// Fewer than maxTrees trees (but at least one) is not an error: the
// greedy process simply ran out of spanning edge sets.
func EdgeDisjointSpanningTrees(g *graph.Graph, root, maxTrees int, seed int64) ([]*SpanningTree, error) {
	if err := checkExtractable(g, root, maxTrees); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := g.N()
	remaining := g.Edges()
	var trees []*SpanningTree
	uf := make([]int32, n)
	var find func(int32) int32
	find = func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]] // path halving
			x = uf[x]
		}
		return x
	}
	for len(trees) < maxTrees {
		rng.Shuffle(len(remaining), func(i, j int) { remaining[i], remaining[j] = remaining[j], remaining[i] })
		for i := range uf {
			uf[i] = int32(i)
		}
		adj := make([][]int32, n) // tree adjacency
		taken := 0
		unusedTail := remaining[:0]
		for _, e := range remaining {
			if taken == n-1 {
				unusedTail = append(unusedTail, e)
				continue
			}
			ru, rv := find(int32(e[0])), find(int32(e[1]))
			if ru == rv {
				unusedTail = append(unusedTail, e)
				continue
			}
			uf[ru] = rv
			adj[e[0]] = append(adj[e[0]], int32(e[1]))
			adj[e[1]] = append(adj[e[1]], int32(e[0]))
			taken++
		}
		if taken != n-1 {
			break // remaining edges no longer span the graph
		}
		remaining = unusedTail
		// Root the tree at `root` by BFS over its own edges.
		parent := make([]int32, n)
		for i := range parent {
			parent[i] = -2
		}
		parent[root] = -1
		queue := []int32{int32(root)}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range adj[u] {
				if parent[v] == -2 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		trees = append(trees, &SpanningTree{Root: root, Parent: parent})
	}
	if len(trees) == 0 {
		return nil, fmt.Errorf("%w (%s: %d vertices, %d edges)", ErrDisconnected, g.Name(), n, g.M())
	}
	return trees, nil
}

// EdgeDisjointBFSTrees extracts up to maxTrees pairwise edge-disjoint
// shallow spanning trees rooted at root. The k trees grow together,
// round-robin, one parent adoption per tree per turn, each tree adopting
// in FIFO (BFS) order over the shared pool of unclaimed edges — the
// interleaving stops any single tree from monopolising a vertex's edges
// (a plain sequential BFS spends every root edge on tree 1 and leaves
// the root isolated in the residual graph). When growth stalls with a
// few vertices cut off behind fully-claimed edges, a single-swap
// augmentation frees a claimed cut edge by re-attaching its owner tree
// through a different unclaimed edge (a one-step matroid-union exchange);
// if not even that makes progress the whole attempt retries with k-1
// trees, so every returned tree is a complete spanning tree. BFS order
// keeps depths near the root's eccentricity — far shallower than Kruskal
// trees on low-diameter networks — which is what makes the trees usable
// as bounded-length routing lanes rather than only as escape paths.
// Deterministic per seed. Error contract matches
// EdgeDisjointSpanningTrees.
func EdgeDisjointBFSTrees(g *graph.Graph, root, maxTrees int, seed int64) ([]*SpanningTree, error) {
	if err := checkExtractable(g, root, maxTrees); err != nil {
		return nil, err
	}
	n := g.N()
	if n == 1 {
		return []*SpanningTree{{Root: root, Parent: []int32{-1}}}, nil
	}
	rng := rand.New(rand.NewSource(seed))
	// Per-vertex shuffled neighbor visiting order, shared by every
	// attempt (trees still differ: the claimed-edge pool shifts).
	perm := make([][]int32, n)
	for u := 0; u < n; u++ {
		perm[u] = make([]int32, len(g.Neighbors(u)))
		for i := range perm[u] {
			perm[u][i] = int32(i)
		}
		rng.Shuffle(len(perm[u]), func(i, j int) { perm[u][i], perm[u][j] = perm[u][j], perm[u][i] })
	}
	kMax := maxTrees
	if d := len(g.Neighbors(root)); kMax > d {
		kMax = d // each tree needs its own root edge
	}
	if nw := g.M() / (n - 1); kMax > nw {
		kMax = nw // Nash–Williams edge-count ceiling
	}
	used := make([]bool, g.NumChannels())
	for k := kMax; k >= 1; k-- {
		for i := range used {
			used[i] = false
		}
		st := &bfsTreesState{g: g, n: n, root: root, k: k, perm: perm, used: used}
		st.init()
		for {
			st.grow()
			if st.complete() {
				trees := make([]*SpanningTree, k)
				for t := 0; t < k; t++ {
					trees[t] = recenter(st.parent[t])
				}
				return trees, nil
			}
			if !st.repairOnce() {
				break // no exchange helps: retry with one tree fewer
			}
		}
	}
	return nil, fmt.Errorf("%w (%s: %d vertices, %d edges)", ErrDisconnected, g.Name(), n, g.M())
}

// bfsTreesState is one attempt (fixed tree count k) of the interleaved
// extraction behind EdgeDisjointBFSTrees.
type bfsTreesState struct {
	g       *graph.Graph
	n, root int
	k       int
	perm    [][]int32
	used    []bool // channel id -> claimed as a tree edge (both directions)

	parent  [][]int32
	queues  [][]int32 // per tree: its vertices in adoption (BFS) order
	heads   []int     // per tree: scan cursor into queues
	reached []int
	stuck   []bool

	// reattach's scratch, n entries each (kidAt n+1). Between calls inB
	// is all false and ecc all -1: a call resets only B's entries.
	inB   []bool
	ecc   []int32 // ecc_B(a) of a candidate a, -1 until computed
	dist  []int32 // one ecc_B BFS's distances, valid on B only
	kidAt []int32 // t2's children of v are kids[kidAt[v]:kidAt[v+1]]
	kids  []int32
	order []int32 // B in BFS order from its root
	queue []int32 // ecc_B BFS queue
}

func (st *bfsTreesState) init() {
	st.parent = make([][]int32, st.k)
	st.queues = make([][]int32, st.k)
	st.heads = make([]int, st.k)
	st.reached = make([]int, st.k)
	st.stuck = make([]bool, st.k)
	for t := 0; t < st.k; t++ {
		st.parent[t] = make([]int32, st.n)
		for i := range st.parent[t] {
			st.parent[t][i] = -2
		}
		st.parent[t][st.root] = -1
		st.queues[t] = []int32{int32(st.root)}
		st.reached[t] = 1
	}
	st.inB = make([]bool, st.n)
	st.ecc = make([]int32, st.n)
	for i := range st.ecc {
		st.ecc[i] = -1
	}
	st.dist = make([]int32, st.n)
	st.kidAt = make([]int32, st.n+1)
	st.kids = make([]int32, st.n)
}

func (st *bfsTreesState) complete() bool {
	for t := 0; t < st.k; t++ {
		if st.reached[t] != st.n {
			return false
		}
	}
	return true
}

func (st *bfsTreesState) claim(u, v int) {
	st.used[st.g.ChannelID(u, v)] = true
	st.used[st.g.ChannelID(v, u)] = true
}

func (st *bfsTreesState) unclaim(u, v int) {
	st.used[st.g.ChannelID(u, v)] = false
	st.used[st.g.ChannelID(v, u)] = false
}

// grow runs round-robin single-adoption turns to a fixpoint: every tree
// is complete or stuck (no unclaimed edge crosses its cut).
func (st *bfsTreesState) grow() {
	g := st.g
	for {
		progressed := false
		for t := 0; t < st.k; t++ {
			if st.stuck[t] || st.reached[t] == st.n {
				continue
			}
			adopted := false
			for st.heads[t] < len(st.queues[t]) {
				u := int(st.queues[t][st.heads[t]])
				first := g.FirstChannel(u)
				nbrs := g.Neighbors(u)
				for _, kk := range st.perm[u] {
					if st.used[first+int(kk)] {
						continue
					}
					v := nbrs[kk]
					if st.parent[t][v] != -2 {
						continue
					}
					st.parent[t][v] = int32(u)
					st.used[first+int(kk)] = true
					st.used[g.ChannelID(int(v), u)] = true
					st.queues[t] = append(st.queues[t], v)
					st.reached[t]++
					adopted = true
					break
				}
				if adopted {
					break
				}
				st.heads[t]++ // u exhausted for good: see repairOnce
			}
			if adopted {
				progressed = true
			} else {
				st.stuck[t] = true
			}
		}
		if !progressed {
			return
		}
	}
}

// repairOnce performs one exchange: a stuck tree t wants the claimed cut
// edge (u,v) (u in t, v not); its owner t2 holds it as a tree edge whose
// removal splits off subtree B. If some unclaimed edge (a,b) re-attaches
// B (a in B, b in the rest of t2), t2 is rewired over (a,b), (u,v) is
// handed to t and t adopts v through it. Returns whether any exchange
// was made; on success the stuck flags reset so growth can resume.
//
// The scan cursors survive: an exchange unclaims no edge ((u,v) passes
// from t2 to t, (a,b) is newly claimed), leaves t2's vertex set as it
// was and only adds v to t, so a queue vertex grow found exhausted —
// every edge out of it claimed or leading into its own tree — stays so.
func (st *bfsTreesState) repairOnce() bool {
	for t := 0; t < st.k; t++ {
		if st.stuck[t] && st.reached[t] < st.n && st.tryExchange(t) {
			clear(st.stuck)
			return true
		}
	}
	return false
}

func (st *bfsTreesState) tryExchange(t int) bool {
	g := st.g
	for v := 0; v < st.n; v++ {
		if st.parent[t][v] != -2 {
			continue
		}
		for _, kk := range st.perm[v] {
			u := int(g.Neighbors(v)[kk])
			if st.parent[t][u] == -2 {
				continue // not a cut edge of t
			}
			// (u,v) crosses t's cut and is necessarily claimed (grow ran
			// to fixpoint); find its owner t2 != t.
			t2 := -1
			for c := 0; c < st.k; c++ {
				if st.parent[c][v] == int32(u) || st.parent[c][u] == int32(v) {
					t2 = c
					break
				}
			}
			if t2 < 0 {
				continue
			}
			child := v
			if st.parent[t2][u] == int32(v) {
				child = u
			}
			if st.reattach(t2, child, u, v) {
				st.parent[t][v] = int32(u)
				st.claim(u, v)
				st.queues[t] = append(st.queues[t], int32(v))
				st.reached[t]++
				return true
			}
		}
	}
	return false
}

// reattach detaches subtree B rooted at child from tree t2 (cutting the
// edge child—parent[child], which is exU—exV) and re-attaches it through
// an unclaimed edge into the rest of t2, re-rooting B at the new
// attachment point. Among all candidate edges (a in B, b in the rest of
// t2) it picks the first, in B's BFS order (children in ascending id)
// and a's neighbour order, minimising the re-attached subtree's deepest
// vertex (depth(b) + 1 + ecc_B(a)) — unguided repairs chain subtrees
// into deep paths that are useless as bounded-length lanes. Returns
// false, leaving t2 untouched, if no candidate edge exists.
func (st *bfsTreesState) reattach(t2, child, exU, exV int) bool {
	g, par := st.g, st.parent[t2]
	// t2's children lists, ascending, by a counting sort over parents:
	// after the prefix sums kidAt[p] is p's start offset, the fill
	// advances it to p's end (p+1's start), and a shift by one slot
	// restores the starts.
	at := st.kidAt
	clear(at)
	for _, p := range par {
		if p >= 0 {
			at[p+1]++
		}
	}
	for v := 1; v <= st.n; v++ {
		at[v] += at[v-1]
	}
	for v, p := range par {
		if p >= 0 {
			st.kids[at[p]] = int32(v)
			at[p]++
		}
	}
	copy(at[1:], at[:st.n])
	at[0] = 0

	order := append(st.order[:0], int32(child))
	st.inB[child] = true
	for head := 0; head < len(order); head++ {
		x := order[head]
		for _, c := range st.kids[at[x]:at[x+1]] {
			st.inB[c] = true
			order = append(order, c)
		}
	}
	st.order = order
	defer func() {
		for _, x := range order {
			st.inB[x], st.ecc[x] = false, -1
		}
	}()

	bestA, bestB, bestScore := -1, -1, 0
	for _, a32 := range order {
		a := int(a32)
		first := g.FirstChannel(a)
		nbrs := g.Neighbors(a)
		for _, kk := range st.perm[a] {
			if st.used[first+int(kk)] {
				continue
			}
			b := int(nbrs[kk])
			if st.inB[b] || par[b] == -2 {
				continue
			}
			if st.ecc[a] < 0 {
				st.ecc[a] = st.eccB(a32, child, par)
			}
			// b's depth in the surviving part of t2: its ancestors are
			// outside B, so B's re-rooting does not change it.
			depth := 0
			for x := par[b]; x >= 0; x = par[x] {
				depth++
			}
			score := depth + 1 + int(st.ecc[a])
			if bestA < 0 || score < bestScore {
				bestA, bestB, bestScore = a, b, score
			}
		}
	}
	if bestA < 0 {
		return false
	}
	// Re-root B at bestA: reverse the parent chain bestA → child.
	prev, cur := int32(bestB), int32(bestA)
	for {
		next := par[cur]
		par[cur] = prev
		if int(cur) == child {
			break
		}
		prev, cur = cur, next
	}
	st.claim(bestA, bestB)
	st.unclaim(exU, exV)
	return true
}

// eccB returns a's eccentricity in B, the subtree of t2 (parent array
// par) rooted at child that st.order lists: a BFS over B's tree edges,
// each B vertex's children and, below child, its parent.
func (st *bfsTreesState) eccB(a int32, child int, par []int32) int32 {
	dist, at := st.dist, st.kidAt
	for _, x := range st.order {
		dist[x] = -1
	}
	dist[a] = 0
	q := append(st.queue[:0], a)
	for head := 0; head < len(q); head++ {
		u := q[head]
		du := dist[u] + 1
		for _, w := range st.kids[at[u]:at[u+1]] {
			if dist[w] < 0 {
				dist[w] = du
				q = append(q, w)
			}
		}
		if p := par[u]; int(u) != child && dist[p] < 0 {
			dist[p] = du
			q = append(q, p)
		}
	}
	st.queue = q
	return dist[q[len(q)-1]]
}

// recenter re-roots a spanning tree (given as a parent array it takes
// ownership of) at its centre, minimising depth: repair exchanges drag
// the extraction root off-centre, and lane usefulness is bounded by
// depth. Double BFS finds a diameter path; the midpoint is the centre.
func recenter(parent []int32) *SpanningTree {
	n := len(parent)
	adj := make([][]int32, n)
	oldRoot := 0
	for v, p := range parent {
		if p >= 0 {
			adj[p] = append(adj[p], int32(v))
			adj[v] = append(adj[v], p)
		} else if p == -1 {
			oldRoot = v
		}
	}
	bfs := func(src int32) (dist, par []int32, far int32) {
		dist = make([]int32, n)
		par = make([]int32, n)
		for i := range dist {
			dist[i], par[i] = -1, -2
		}
		dist[src], par[src] = 0, -1
		q := []int32{src}
		far = src
		for head := 0; head < len(q); head++ {
			u := q[head]
			for _, w := range adj[u] {
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					par[w] = u
					if dist[w] > dist[far] {
						far = w
					}
					q = append(q, w)
				}
			}
		}
		return dist, par, far
	}
	_, _, x := bfs(int32(oldRoot))
	distX, parX, y := bfs(x)
	c := y
	for i := distX[y] / 2; i > 0; i-- {
		c = parX[c]
	}
	_, parC, _ := bfs(c)
	return &SpanningTree{Root: int(c), Parent: parC}
}
