package topo

import (
	"fmt"
	"sort"

	"polarstar/internal/gf"
	"polarstar/internal/graph"
)

// LPS constructs the Lubotzky–Phillips–Sarnak Ramanujan graphs X^{p,q}
// behind Spectralfly (Young et al., IPDPS 2022). For distinct odd primes
// p and q, X^{p,q} is the Cayley graph of PSL(2,q) (when p is a quadratic
// residue mod q) or PGL(2,q) (otherwise) with p+1 generators derived from
// the integer solutions of a² + b² + c² + d² = p.
//
// The Table 3 Spectralfly instance is X^{23,13}: 24-regular on
// |PSL(2,13)| = 1092 vertices.
type LPS struct {
	P, Q int
	// PSL reports whether the graph lives on PSL(2,q) (p a QR mod q).
	PSL bool
	G   *graph.Graph
}

// NewLPS builds X^{p,q}. p and q must be distinct odd primes, and q must
// admit i with i² = −1 (q ≡ 1 mod 4).
func NewLPS(p, q int) (*LPS, error) {
	if !gf.IsPrime(p) || !gf.IsPrime(q) || p == q || p == 2 || q == 2 {
		return nil, fmt.Errorf("topo: LPS needs distinct odd primes, got p=%d q=%d", p, q)
	}
	if q%4 != 1 {
		return nil, fmt.Errorf("topo: LPS needs q ≡ 1 mod 4 (square root of -1), got q=%d", q)
	}
	f := gf.MustNew(q)
	// i with i² = −1 mod q.
	iRoot := -1
	for x := 1; x < q; x++ {
		if f.Mul(x, x) == f.Neg(1) {
			iRoot = x
			break
		}
	}
	if iRoot < 0 {
		return nil, fmt.Errorf("topo: no sqrt(-1) mod %d", q)
	}

	// Enumerate the p+1 normalized integer solutions of a²+b²+c²+d² = p
	// and map each to the projective matrix [a+bi, c+di; −c+di, a−bi]
	// over GF(q). Normalization (Lubotzky–Phillips–Sarnak / Chiu):
	// for p ≡ 1 (mod 4) take a odd positive with b, c, d even; for
	// p ≡ 3 (mod 4) every solution has one even and three odd entries —
	// take a even, identifying the ± sign pair of each solution.
	mod := func(x int) int { return ((x % q) + q) % q }
	type mat [4]int
	normalize := func(m mat) (mat, bool) {
		for i := 0; i < 4; i++ {
			if m[i] != 0 {
				inv := f.Inv(m[i])
				var out mat
				for j := 0; j < 4; j++ {
					out[j] = f.Mul(m[j], inv)
				}
				return out, true
			}
		}
		return mat{}, false
	}
	genSet := make(map[mat]bool)
	bound := 1
	for bound*bound < p {
		bound++
	}
	admissible := func(a, b, c, d int) bool {
		if p%4 == 1 {
			return a > 0 && a%2 == 1 && b%2 == 0 && c%2 == 0 && d%2 == 0
		}
		// p ≡ 3 mod 4: a even, b,c,d odd; pick one representative of
		// each ± pair by requiring the first non-zero entry positive.
		if a%2 != 0 || b%2 == 0 || c%2 == 0 || d%2 == 0 {
			return false
		}
		for _, x := range []int{a, b, c, d} {
			if x != 0 {
				return x > 0
			}
		}
		return false
	}
	for a := -bound; a <= bound; a++ {
		for b := -bound; b <= bound; b++ {
			for c := -bound; c <= bound; c++ {
				for d := -bound; d <= bound; d++ {
					if a*a+b*b+c*c+d*d != p || !admissible(a, b, c, d) {
						continue
					}
					m := mat{
						f.Add(mod(a), f.Mul(mod(b), iRoot)),
						f.Add(mod(c), f.Mul(mod(d), iRoot)),
						f.Add(mod(-c), f.Mul(mod(d), iRoot)),
						f.Add(mod(a), f.Neg(f.Mul(mod(b), iRoot))),
					}
					if nm, ok := normalize(m); ok {
						genSet[nm] = true
					}
				}
			}
		}
	}
	if len(genSet) != p+1 {
		return nil, fmt.Errorf("topo: LPS(%d,%d): %d projective generators, want %d", p, q, len(genSet), p+1)
	}
	gens := make([]mat, 0, p+1)
	for m := range genSet {
		gens = append(gens, m)
	}
	// Map iteration order is random per run; the generator order drives
	// the BFS closure and therefore the vertex numbering. Sort so every
	// NewLPS call labels the graph identically.
	sort.Slice(gens, func(i, j int) bool {
		for k := 0; k < 4; k++ {
			if gens[i][k] != gens[j][k] {
				return gens[i][k] < gens[j][k]
			}
		}
		return false
	})

	mul := func(x, y mat) mat {
		return mat{
			f.Add(f.Mul(x[0], y[0]), f.Mul(x[1], y[2])),
			f.Add(f.Mul(x[0], y[1]), f.Mul(x[1], y[3])),
			f.Add(f.Mul(x[2], y[0]), f.Mul(x[3], y[2])),
			f.Add(f.Mul(x[2], y[1]), f.Mul(x[3], y[3])),
		}
	}

	// BFS closure from the identity under the generators.
	ident := mat{1, 0, 0, 1}
	index := map[mat]int{ident: 0}
	verts := []mat{ident}
	type edge [2]int
	var edges []edge
	for head := 0; head < len(verts); head++ {
		v := verts[head]
		for _, g := range gens {
			w, ok := normalize(mul(v, g))
			if !ok {
				return nil, fmt.Errorf("topo: LPS(%d,%d): singular product", p, q)
			}
			j, seen := index[w]
			if !seen {
				j = len(verts)
				index[w] = j
				verts = append(verts, w)
			}
			edges = append(edges, edge{head, j})
		}
	}
	b := graph.NewBuilder(fmt.Sprintf("LPS(%d,%d)", p, q), len(verts))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	psl := f.IsResidue(p % q)
	return &LPS{P: p, Q: q, PSL: psl, G: b.Build()}, nil
}

// LPSOrder returns the order of X^{p,q}: q(q²−1)/2 on PSL (p a QR mod q)
// or q(q²−1) on PGL. Returns 0 for infeasible parameters.
func LPSOrder(p, q int) int {
	if !gf.IsPrime(p) || !gf.IsPrime(q) || p == q || p == 2 || q == 2 || q%4 != 1 {
		return 0
	}
	f, err := gf.New(q)
	if err != nil {
		return 0 // q beyond table limit: outside evaluated range
	}
	if f.IsResidue(p % q) {
		return q * (q*q - 1) / 2
	}
	return q * (q*q - 1)
}
