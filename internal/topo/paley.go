package topo

import (
	"fmt"

	"polarstar/internal/gf"
	"polarstar/internal/graph"
)

// Paley graphs (Paley 1933) are the Property R1 supernode family of the
// paper (Table 2): order 2d'+1, degree d', existing when d' is even and
// 2d'+1 is a prime power congruent to 1 mod 4.
//
// Vertices are the elements of GF(q), q = 2d'+1; x ~ y iff x−y is a
// non-zero quadratic residue. The R1 bijection is multiplication by a
// fixed non-residue n: f(E') is exactly the non-residue-difference edge
// set, so E' ∪ f(E') is complete, and f² (multiplication by the residue
// n²) is an automorphism.

// PaleyFeasible reports whether a Paley supernode of the given degree
// exists: degree even with 2·degree+1 a prime power ≡ 1 (mod 4).
func PaleyFeasible(degree int) bool {
	if degree <= 0 || degree%2 != 0 {
		return false
	}
	q := 2*degree + 1
	return gf.IsPrimePower(q) && q%4 == 1
}

// NewPaleyGraph constructs the Paley graph on q vertices for a prime
// power q ≡ 1 (mod 4).
func NewPaleyGraph(q int) (*graph.Graph, error) {
	if !gf.IsPrimePower(q) || q%4 != 1 {
		return nil, fmt.Errorf("topo: Paley(%d) needs a prime power ≡ 1 mod 4", q)
	}
	f, err := gf.New(q)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(fmt.Sprintf("Paley%d", q), q)
	for x := 0; x < q; x++ {
		for y := x + 1; y < q; y++ {
			if f.IsResidue(f.Sub(x, y)) {
				b.AddEdge(x, y)
			}
		}
	}
	return b.Build(), nil
}

// NewPaleySupernode constructs the Paley supernode of the given degree
// together with its R1 bijection.
func NewPaleySupernode(degree int) (*Supernode, error) {
	if !PaleyFeasible(degree) {
		return nil, fmt.Errorf("topo: Paley supernode degree %d infeasible (need even degree with 2d'+1 a prime power ≡ 1 mod 4)", degree)
	}
	q := 2*degree + 1
	g, err := NewPaleyGraph(q)
	if err != nil {
		return nil, err
	}
	fld := gf.MustNew(q)
	n := fld.NonResidues()[0]
	f := make([]int, q)
	for x := 0; x < q; x++ {
		f[x] = fld.Mul(n, x)
	}
	s := &Supernode{G: g, F: f}
	s.validateBijection()
	return s, nil
}
