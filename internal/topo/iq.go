package topo

import (
	"fmt"

	"polarstar/internal/graph"
)

// Inductive-Quad graphs (§6.2.1 of the paper) are the new supernode family
// introduced by PolarStar. IQ_d' has 2d'+2 vertices — meeting the Property
// R* upper bound of Proposition 2 — and exists for d' ≡ 0 or 3 (mod 4).
//
// Vertex layout invariant maintained by the construction: vertices are
// split into a set A and its image f(A); f pairs vertex v with v^1 inside
// each consecutive (a_i, b_i) pair. Concretely the involution is stored
// explicitly and returned alongside the graph.

// IQFeasible reports whether IQ_d' exists, i.e. d' ≡ 0 or 3 (mod 4).
func IQFeasible(degree int) bool {
	return degree >= 0 && (degree%4 == 0 || degree%4 == 3)
}

// NewIQ constructs the Inductive-Quad supernode of the given degree.
func NewIQ(degree int) (*Supernode, error) {
	if !IQFeasible(degree) {
		return nil, fmt.Errorf("topo: IQ degree %d infeasible (need 0 or 3 mod 4)", degree)
	}

	// edge list kept explicitly during induction, then frozen into a Graph.
	type edge [2]int
	var (
		edges []edge
		f     []int
		sideA []int // the A half of the current partition, f(A) is implied
	)

	// Base case IQ_0: two vertices, no edges, f swaps them.
	f = []int{1, 0}
	sideA = []int{0}
	deg := 0

	// addIQ3Block appends a fresh IQ_3 on vertices base..base+7 with
	// f(base+i) = base+4+i, using the explicit 12-edge layout below
	// (verified to satisfy Property R* by the package tests):
	//   within: (a0,a1)(a1,a2)(a2,a3)(b0,b2)(b1,b3)(b0,b3)
	//   cross:  (a0,b1)(a0,b2)(a3,b0)(a2,b1)(a1,b3)(a3,b2)
	addIQ3Block := func(base int) (a, b [4]int) {
		for i := 0; i < 4; i++ {
			a[i] = base + i
			b[i] = base + 4 + i
		}
		within := [][2]int{{a[0], a[1]}, {a[1], a[2]}, {a[2], a[3]}, {b[0], b[2]}, {b[1], b[3]}, {b[0], b[3]}}
		cross := [][2]int{{a[0], b[1]}, {a[0], b[2]}, {a[3], b[0]}, {a[2], b[1]}, {a[1], b[3]}, {a[3], b[2]}}
		for _, e := range append(within, cross...) {
			edges = append(edges, e)
		}
		return a, b
	}

	if degree%4 == 3 {
		// Restart from IQ_3 instead of IQ_0.
		edges = edges[:0]
		f = make([]int, 8)
		a, b := addIQ3Block(0)
		for i := 0; i < 4; i++ {
			f[a[i]] = b[i]
			f[b[i]] = a[i]
		}
		sideA = []int{a[0], a[1], a[2], a[3]}
		deg = 3
	}

	// Inductive step (§6.2.1): append an IQ_3 block; join
	// {x', f(x'), z', f(z')} = {a0,b0,a2,b2} to every vertex of A and
	// {y', f(y'), w', f(w')} = {a1,b1,a3,b3} to every vertex of f(A).
	for deg < degree {
		base := len(f)
		f = append(f, make([]int, 8)...)
		a, b := addIQ3Block(base)
		for i := 0; i < 4; i++ {
			f[a[i]] = b[i]
			f[b[i]] = a[i]
		}
		joinA := []int{a[0], b[0], a[2], b[2]}
		joinFA := []int{a[1], b[1], a[3], b[3]}
		for _, u := range sideA {
			for _, v := range joinA {
				edges = append(edges, edge{u, v})
			}
			for _, v := range joinFA {
				edges = append(edges, edge{f[u], v})
			}
		}
		sideA = append(sideA, a[0], a[1], a[2], a[3])
		deg += 4
	}

	gb := graph.NewBuilder(fmt.Sprintf("IQ%d", degree), len(f))
	for _, e := range edges {
		gb.AddEdge(e[0], e[1])
	}
	s := &Supernode{G: gb.Build(), F: f}
	s.validateBijection()
	return s, nil
}
