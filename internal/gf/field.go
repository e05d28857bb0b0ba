// Package gf implements arithmetic in finite fields GF(q) for prime-power
// order q. It is the algebraic substrate for the Erdős–Rényi polarity
// graphs, Paley graphs and McKay–Miller–Širáň graphs used throughout the
// PolarStar reproduction.
//
// Field elements are represented as integers in [0, q). For an extension
// field GF(p^k) the integer x encodes the coefficient vector of a degree
// < k polynomial over GF(p) in base p: x = c0 + c1*p + ... + c(k-1)*p^(k-1).
// Element 0 is the additive identity and element 1 the multiplicative one.
//
// Fields up to order 4096 precompute full multiplication and inverse
// tables, making the per-operation cost a single slice lookup; that covers
// every configuration in the paper (network radix <= 128 implies q <= 127).
package gf

import "fmt"

// tableLimit is the largest field order for which full q×q operation tables
// are precomputed.
const tableLimit = 4096

// Field is an immutable finite field GF(q), safe for concurrent use.
type Field struct {
	q, p, k int
	irr     poly // monic irreducible polynomial of degree k over GF(p)

	add []int // q*q addition table
	mul []int // q*q multiplication table
	neg []int // additive inverses
	inv []int // multiplicative inverses (inv[0] unused)

	expTab   []int  // gen^i for i in [0, q-1), gen a primitive element
	residues []bool // residues[x]: x is a non-zero square
}

// New constructs GF(q). It returns an error when q is not a prime power or
// exceeds the supported table size.
func New(q int) (*Field, error) {
	p, k, ok := PrimePower(q)
	if !ok {
		return nil, fmt.Errorf("gf: order %d is not a prime power", q)
	}
	if q > tableLimit {
		return nil, fmt.Errorf("gf: order %d exceeds supported limit %d", q, tableLimit)
	}
	f := &Field{q: q, p: p, k: k, irr: findIrreducible(p, k)}
	f.buildTables()
	return f, nil
}

// MustNew is New but panics on error. Intended for constructions whose
// parameters were already validated.
func MustNew(q int) *Field {
	f, err := New(q)
	if err != nil {
		panic(err)
	}
	return f
}

// Add returns a+b.
func (f *Field) Add(a, b int) int { return f.add[a*f.q+b] }

// Sub returns a-b.
func (f *Field) Sub(a, b int) int { return f.add[a*f.q+f.neg[b]] }

// Neg returns -a.
func (f *Field) Neg(a int) int { return f.neg[a] }

// Mul returns a*b.
func (f *Field) Mul(a, b int) int { return f.mul[a*f.q+b] }

// Inv returns a^-1. It panics when a == 0.
func (f *Field) Inv(a int) int {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return f.inv[a]
}

// Exp returns g^i for i >= 0, where g is a fixed primitive element: a
// generator of the multiplicative group GF(q)*.
func (f *Field) Exp(i int) int { return f.expTab[i%(f.q-1)] }

// IsResidue reports whether non-zero x is a quadratic residue (a square of
// a non-zero element). For even characteristic every non-zero element is a
// square. IsResidue(0) is false.
func (f *Field) IsResidue(x int) bool { return x != 0 && f.residues[x] }

// Residues returns the non-zero quadratic residues in increasing order.
func (f *Field) Residues() []int {
	var out []int
	for x := 1; x < f.q; x++ {
		if f.residues[x] {
			out = append(out, x)
		}
	}
	return out
}

// NonResidues returns the non-zero quadratic non-residues in increasing order.
func (f *Field) NonResidues() []int {
	var out []int
	for x := 1; x < f.q; x++ {
		if !f.residues[x] {
			out = append(out, x)
		}
	}
	return out
}

// Dot returns the dot product of equal-length vectors u and v over the field.
func (f *Field) Dot(u, v []int) int {
	if len(u) != len(v) {
		panic("gf: dot product of vectors with different lengths")
	}
	s := 0
	for i := range u {
		s = f.Add(s, f.Mul(u[i], v[i]))
	}
	return s
}

// buildTables populates the full operation tables. Construction does the
// polynomial arithmetic once; all subsequent operations are table lookups.
func (f *Field) buildTables() {
	q, p, k := f.q, f.p, f.k

	toPoly := func(x int) poly {
		c := make(poly, k)
		for i := 0; i < k; i++ {
			c[i] = x % p
			x /= p
		}
		return polyTrim(c)
	}
	fromPoly := func(a poly) int {
		x, mult := 0, 1
		for i := 0; i < k; i++ {
			if i < len(a) {
				x += a[i] * mult
			}
			mult *= p
		}
		return x
	}

	f.add = make([]int, q*q)
	f.mul = make([]int, q*q)
	f.neg = make([]int, q)
	polys := make([]poly, q)
	for x := 0; x < q; x++ {
		polys[x] = toPoly(x)
	}
	for a := 0; a < q; a++ {
		for b := a; b < q; b++ {
			s := fromPoly(polyAdd(polys[a], polys[b], p))
			f.add[a*q+b] = s
			f.add[b*q+a] = s
			m := fromPoly(polyMod(polyMul(polys[a], polys[b], p), f.irr, p))
			f.mul[a*q+b] = m
			f.mul[b*q+a] = m
			if s == 0 {
				f.neg[a] = b
				f.neg[b] = a
			}
		}
	}

	f.inv = make([]int, q)
	for a := 1; a < q; a++ {
		if f.inv[a] != 0 {
			continue
		}
		for b := 1; b < q; b++ {
			if f.mul[a*q+b] == 1 {
				f.inv[a] = b
				f.inv[b] = a
				break
			}
		}
	}

	// Find a generator: an element of multiplicative order q-1.
	gen := 1
	for cand := 1; cand < q; cand++ {
		if f.multiplicativeOrder(cand) == q-1 {
			gen = cand
			break
		}
	}
	f.expTab = make([]int, q-1)
	x := 1
	for i := 0; i < q-1; i++ {
		f.expTab[i] = x
		x = f.mul[x*q+gen]
	}

	f.residues = make([]bool, q)
	for x := 1; x < q; x++ {
		f.residues[f.mul[x*q+x]] = true
	}
}

func (f *Field) multiplicativeOrder(a int) int {
	x, n := a, 1
	for x != 1 {
		x = f.mul[x*f.q+a]
		n++
		if n > f.q {
			panic("gf: runaway order computation")
		}
	}
	return n
}
