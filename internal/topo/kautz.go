package topo

import (
	"fmt"
	"math/rand"

	"polarstar/internal/graph"
)

// Kautz graphs K(d, n) (§1.2): directed graphs on (d+1)·d^n vertices —
// the words s_0…s_n over an alphabet of d+1 symbols with s_i ≠ s_{i+1} —
// with arcs from s_0…s_n to s_1…s_n·t. The paper treats each link as
// bidirectional, doubling the degree; NewKautz returns that underlying
// undirected graph.
type Kautz struct {
	D int // alphabet size - 1 (directed out-degree)
	L int // word length - 1 (directed diameter)
	G *graph.Graph
}

// NewKautz builds the undirected Kautz graph K(d, n).
func NewKautz(d, n int) (*Kautz, error) {
	if d < 2 || n < 1 {
		return nil, fmt.Errorf("topo: Kautz needs d >= 2, n >= 1, got d=%d n=%d", d, n)
	}
	order := (d + 1) * pow(d, n)
	if order > 1<<22 {
		return nil, fmt.Errorf("topo: Kautz(%d,%d) too large (%d vertices)", d, n, order)
	}
	// Enumerate words: first symbol in [0, d+1), each next symbol one of d
	// choices (skip-encode: symbol = choice if choice < prev else choice+1).
	id := func(word []int) int {
		v := word[0]
		for i := 1; i < len(word); i++ {
			c := word[i]
			if c > word[i-1] {
				c--
			}
			v = v*d + c
		}
		return v
	}
	words := make([][]int, 0, order)
	var gen func(word []int)
	gen = func(word []int) {
		if len(word) == n+1 {
			words = append(words, append([]int{}, word...))
			return
		}
		for s := 0; s <= d; s++ {
			if s != word[len(word)-1] {
				gen(append(word, s))
			}
		}
	}
	for s := 0; s <= d; s++ {
		gen([]int{s})
	}
	b := graph.NewBuilder(fmt.Sprintf("Kautz(%d,%d)", d, n), order)
	for _, w := range words {
		u := id(w)
		for t := 0; t <= d; t++ {
			if t == w[n] {
				continue
			}
			next := append(append([]int{}, w[1:]...), t)
			b.AddEdge(u, id(next))
		}
	}
	return &Kautz{D: d, L: n, G: b.Build()}, nil
}

// KautzOrder returns (d+1)·d^n.
func KautzOrder(d, n int) int {
	if d < 2 || n < 1 {
		return 0
	}
	return (d + 1) * pow(d, n)
}

func pow(b, e int) int {
	out := 1
	for i := 0; i < e; i++ {
		out *= b
	}
	return out
}

// NewJellyfish builds a random r-regular graph on n vertices (Singla et
// al., NSDI 2012), the random-topology baseline of the bisection study
// (Fig 12). The construction uses the pairing model with edge-swap
// repair and is deterministic for a given seed.
func NewJellyfish(n, r int, seed int64) (*graph.Graph, error) {
	if n*r%2 != 0 || r >= n || r < 1 {
		return nil, fmt.Errorf("topo: Jellyfish needs r < n and n·r even, got n=%d r=%d", n, r)
	}
	rng := rand.New(rand.NewSource(seed))
	type edge [2]int
	var connBFS graph.BFSScratch // connectivity screening, reused across candidates
	for attempt := 0; attempt < 200; attempt++ {
		stubs := make([]int, 0, n*r)
		for v := 0; v < n; v++ {
			for i := 0; i < r; i++ {
				stubs = append(stubs, v)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		has := make(map[edge]bool, n*r/2)
		edges := make([]edge, 0, n*r/2)
		key := func(u, v int) edge {
			if u > v {
				u, v = v, u
			}
			return edge{u, v}
		}
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v || has[key(u, v)] {
				// Repair: find a random earlier edge (x, y) so that
				// (u, x) and (v, y) are both fresh, and swap.
				fixed := false
				for t := 0; t < 500 && !fixed; t++ {
					j := rng.Intn(len(edges))
					x, y := edges[j][0], edges[j][1]
					if u != x && v != y && u != y && v != x &&
						!has[key(u, x)] && !has[key(v, y)] {
						delete(has, key(x, y))
						edges[j] = key(u, x)
						has[key(u, x)] = true
						edges = append(edges, key(v, y))
						has[key(v, y)] = true
						fixed = true
					}
				}
				if !fixed {
					ok = false
					break
				}
				continue
			}
			has[key(u, v)] = true
			edges = append(edges, key(u, v))
		}
		if !ok {
			continue
		}
		b := graph.NewBuilder(fmt.Sprintf("Jellyfish(n=%d,r=%d)", n, r), n)
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		g := b.Build()
		if g.IsRegular() && g.MaxDegree() == r && g.IsConnected(&connBFS) {
			return g, nil
		}
	}
	return nil, fmt.Errorf("topo: Jellyfish construction failed for n=%d r=%d", n, r)
}
