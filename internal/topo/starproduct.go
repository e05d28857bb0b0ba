package topo

import (
	"fmt"

	"polarstar/internal/gf"
	"polarstar/internal/graph"
)

// StarProduct computes the bijective star product G * G' (Definition 1,
// §4.2) using the single bijection f for every arc of the structure graph.
//
// Vertex (x, x') of the product is numbered x*|V(G')| + x'. Edges:
//
//   - intra-supernode: (x, x') ~ (x, y') for every edge (x', y') of G';
//   - inter-supernode: (x, x') ~ (y, f(x')) for every arc (x, y) of an
//     (arbitrary, here: low-to-high) orientation of E(G);
//   - loop-induced: a self-loop on x in G adds (x, x') ~ (x, f(x'))
//     inside supernode x (the red edges of Fig. 5c); pairs with
//     f(x') == x' are dropped.
//
// When f is an involution the orientation does not affect the edge set;
// for Property R1 bijections any orientation is valid (Theorem 5).
func StarProduct(name string, g *graph.Graph, super *Supernode, f []int) *graph.Graph {
	np := super.G.N()
	id := func(x, xp int) int { return x*np + xp }
	b := graph.NewBuilder(name, g.N()*np)

	for x := 0; x < g.N(); x++ {
		// Intra-supernode copy of G'.
		for _, e := range super.G.Edges() {
			b.AddEdge(id(x, e[0]), id(x, e[1]))
		}
		// Loop-induced edges.
		if g.HasLoop(x) {
			for xp := 0; xp < np; xp++ {
				if f[xp] != xp {
					b.AddEdge(id(x, xp), id(x, f[xp]))
				}
			}
		}
		// Inter-supernode bijective links, oriented low-to-high.
		for _, wy := range g.Neighbors(x) {
			y := int(wy)
			if x < y {
				for xp := 0; xp < np; xp++ {
					b.AddEdge(id(x, xp), id(y, f[xp]))
				}
			}
		}
	}
	return b.Build()
}

// PolarStar is the paper's headline topology: the star product of the
// Erdős–Rényi polarity graph ER_q with an Inductive-Quad or Paley
// supernode (§6). Its diameter is at most 3 (Theorems 4 and 5).
type PolarStar struct {
	Structure *ER
	Super     *Supernode
	Kind      SupernodeKind
	G         *graph.Graph

	q, dPrime int
}

// NewPolarStar builds PolarStar with structure graph ER_q and a supernode
// of the given kind and degree dPrime.
func NewPolarStar(q, dPrime int, kind SupernodeKind) (*PolarStar, error) {
	er, err := NewER(q)
	if err != nil {
		return nil, err
	}
	super, err := NewSupernode(kind, dPrime)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("PolarStar-%v(q=%d,d'=%d)", kind, q, dPrime)
	ps := &PolarStar{
		Structure: er,
		Super:     super,
		Kind:      kind,
		G:         StarProduct(name, er.G, super, super.F),
		q:         q,
		dPrime:    dPrime,
	}
	return ps, nil
}

// MustNewPolarStar is NewPolarStar but panics on error.
func MustNewPolarStar(q, dPrime int, kind SupernodeKind) *PolarStar {
	ps, err := NewPolarStar(q, dPrime, kind)
	if err != nil {
		panic(err)
	}
	return ps
}

// Q returns the structure-graph field order.
func (ps *PolarStar) Q() int { return ps.q }

// DPrime returns the supernode degree.
func (ps *PolarStar) DPrime() int { return ps.dPrime }

// Radix returns the network radix d* = (q+1) + d'.
func (ps *PolarStar) Radix() int { return ps.q + 1 + ps.dPrime }

// NumGroups returns the number of supernodes, q²+q+1.
func (ps *PolarStar) NumGroups() int { return ps.Structure.N() }

// GroupOf returns the supernode (structure vertex) containing v.
func (ps *PolarStar) GroupOf(v int) int { return v / ps.Super.N() }

// LocalOf returns the supernode-internal index of v.
func (ps *PolarStar) LocalOf(v int) int { return v % ps.Super.N() }

// VertexAt returns the product vertex for structure vertex x and
// supernode vertex xp.
func (ps *PolarStar) VertexAt(x, xp int) int { return x*ps.Super.N() + xp }

// PolarStarOrder returns the order of PolarStar(q, d', kind) without
// building it: (q²+q+1) × supernode order. Returns 0 when infeasible.
func PolarStarOrder(q, dPrime int, kind SupernodeKind) int {
	if !isERFeasible(q) {
		return 0
	}
	so := SupernodeOrder(kind, dPrime)
	if so == 0 {
		return 0
	}
	return (q*q + q + 1) * so
}

func isERFeasible(q int) bool {
	return q >= 2 && gf.IsPrimePower(q)
}
