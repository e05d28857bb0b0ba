package topo

import (
	"fmt"
	"strings"

	"polarstar/internal/graph"
)

// Supernode bundles a supernode candidate graph G' with the bijection f
// used by the star product (§5 of the paper). For Property R* families f
// is an involution; for Property R1 families f² is an automorphism.
type Supernode struct {
	G *graph.Graph
	F []int // the bijection f: vertex -> vertex
}

// N returns the supernode order.
func (s *Supernode) N() int { return s.G.N() }

// Degree returns the maximum degree of the supernode.
func (s *Supernode) Degree() int { return s.G.MaxDegree() }

// validateBijection panics unless F is a permutation of [0, n).
func (s *Supernode) validateBijection() {
	seen := make([]bool, s.G.N())
	if len(s.F) != s.G.N() {
		panic("topo: bijection length mismatch")
	}
	for _, y := range s.F {
		if y < 0 || y >= s.G.N() || seen[y] {
			panic("topo: F is not a bijection")
		}
		seen[y] = true
	}
}

// SupernodeKind selects the supernode family of a PolarStar instance.
type SupernodeKind int

const (
	// KindIQ selects the Inductive-Quad supernode (order 2d'+2, Property R*).
	KindIQ SupernodeKind = iota
	// KindPaley selects the Paley supernode (order 2d'+1, Property R1).
	KindPaley
	// KindBDF selects the Bermond–Delorme–Farhi-style supernode
	// (order 2d', Property R*).
	KindBDF
	// KindComplete selects the complete-graph supernode (order d'+1).
	KindComplete
)

func (k SupernodeKind) String() string {
	switch k {
	case KindIQ:
		return "IQ"
	case KindPaley:
		return "Paley"
	case KindBDF:
		return "BDF"
	case KindComplete:
		return "Complete"
	}
	return fmt.Sprintf("SupernodeKind(%d)", int(k))
}

// ParseKind reads a supernode kind by its lower-case name: iq, paley,
// bdf or complete.
func ParseKind(name string) (SupernodeKind, error) {
	for k := KindIQ; k <= KindComplete; k++ {
		if strings.ToLower(k.String()) == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown supernode kind %q", name)
}

// NewSupernode constructs the supernode of the requested kind and degree.
func NewSupernode(kind SupernodeKind, degree int) (*Supernode, error) {
	switch kind {
	case KindIQ:
		return NewIQ(degree)
	case KindPaley:
		return NewPaleySupernode(degree)
	case KindBDF:
		return NewBDF(degree)
	case KindComplete:
		return NewCompleteSupernode(degree)
	}
	return nil, fmt.Errorf("topo: unknown supernode kind %v", kind)
}

// SupernodeOrder returns the order of the kind's supernode at the given
// degree without building it, or 0 when the degree is infeasible.
// These are the Table 2 order formulas.
func SupernodeOrder(kind SupernodeKind, degree int) int {
	switch kind {
	case KindIQ:
		if IQFeasible(degree) {
			return 2*degree + 2
		}
	case KindPaley:
		if PaleyFeasible(degree) {
			return 2*degree + 1
		}
	case KindBDF:
		if degree >= 1 {
			return 2 * degree
		}
	case KindComplete:
		if degree >= 0 {
			return degree + 1
		}
	}
	return 0
}
