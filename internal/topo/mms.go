package topo

import (
	"fmt"
	"math/rand"
	"sync"

	"polarstar/internal/gf"
	"polarstar/internal/graph"
)

// MMS constructs the McKay–Miller–Širáň graphs H_q (the SlimFly
// topology): diameter-2 graphs of order 2q² and degree (3q−δ)/2 for prime
// powers q = 4w + δ, δ ∈ {−1, 0, 1}. They are the structure graphs of
// Bundlefly and the subject of the Fig. 4 comparison.
//
// Vertex set: two sheets of q² vertices each. Sheet 0 vertex (x, y) and
// sheet 1 vertex (m, c), all over GF(q):
//
//	(0,x,y) ~ (0,x,y')  iff  y − y' ∈ X
//	(1,m,c) ~ (1,m,c')  iff  c − c' ∈ X'
//	(0,x,y) ~ (1,m,c)   iff  y = m·x + c
//
// For q ≡ 1 (mod 4) the generator sets are the quadratic residues and
// non-residues (McKay–Miller–Širáň / Hafner). For δ ∈ {0, −1} this
// implementation searches deterministically for symmetric generator sets
// of size (q−δ)/2 that achieve diameter 2 (Šiagiová-style constructions
// exist; the search recovers suitable sets without hard-coding them) and
// caches the result per q.
type MMS struct {
	Q     int
	Delta int
	G     *graph.Graph
}

// MMSDegree returns (3q−δ)/2 for q = 4w+δ, or 0 if q is not a feasible
// MMS parameter.
func MMSDegree(q int) int {
	if !gf.IsPrimePower(q) {
		return 0
	}
	switch q % 4 {
	case 1:
		return (3*q - 1) / 2
	case 0:
		return 3 * q / 2
	case 3:
		return (3*q + 1) / 2
	}
	return 0 // q ≡ 2 (mod 4) only for q == 2, which has no MMS graph
}

// MMSOrder returns 2q² when an MMS graph with parameter q exists, else 0.
func MMSOrder(q int) int {
	if MMSDegree(q) == 0 {
		return 0
	}
	return 2 * q * q
}

var (
	mmsSetCacheMu sync.Mutex
	mmsSetCache   = map[int][2][]int{}
)

// NewMMS constructs H_q. For δ ∈ {0, −1} parameters where the generator
// search fails within its budget, an error is returned.
func NewMMS(q int) (*MMS, error) {
	deg := MMSDegree(q)
	if deg == 0 {
		return nil, fmt.Errorf("topo: MMS parameter %d infeasible", q)
	}
	X, Xp, err := mmsGeneratorSets(q)
	if err != nil {
		return nil, err
	}
	g := buildMMSGraph(q, X, Xp)
	return &MMS{Q: q, Delta: mmsDelta(q), G: g}, nil
}

// N returns the order 2q².
func (m *MMS) N() int { return 2 * m.Q * m.Q }

func mmsDelta(q int) int {
	switch q % 4 {
	case 1:
		return 1
	case 3:
		return -1
	}
	return 0
}

func buildMMSGraph(q int, X, Xp []int) *graph.Graph {
	f := gf.MustNew(q)
	inX := make([]bool, q)
	inXp := make([]bool, q)
	for _, x := range X {
		inX[x] = true
	}
	for _, x := range Xp {
		inXp[x] = true
	}
	id0 := func(x, y int) int { return x*q + y }
	id1 := func(m, c int) int { return q*q + m*q + c }
	b := graph.NewBuilder(fmt.Sprintf("MMS%d", q), 2*q*q)
	for x := 0; x < q; x++ {
		for y := 0; y < q; y++ {
			for yp := y + 1; yp < q; yp++ {
				if inX[f.Sub(y, yp)] {
					b.AddEdge(id0(x, y), id0(x, yp))
				}
			}
		}
	}
	for m := 0; m < q; m++ {
		for c := 0; c < q; c++ {
			for cp := c + 1; cp < q; cp++ {
				if inXp[f.Sub(c, cp)] {
					b.AddEdge(id1(m, c), id1(m, cp))
				}
			}
		}
	}
	for x := 0; x < q; x++ {
		for m := 0; m < q; m++ {
			for c := 0; c < q; c++ {
				b.AddEdge(id0(x, f.Add(f.Mul(m, x), c)), id1(m, c))
			}
		}
	}
	return b.Build()
}

// mmsGeneratorSets returns symmetric sets (X, X') of size (q−δ)/2 that
// yield a diameter-2 graph.
func mmsGeneratorSets(q int) ([]int, []int, error) {
	mmsSetCacheMu.Lock()
	if sets, ok := mmsSetCache[q]; ok {
		mmsSetCacheMu.Unlock()
		return sets[0], sets[1], nil
	}
	mmsSetCacheMu.Unlock()

	f := gf.MustNew(q)
	var X, Xp []int
	switch q % 4 {
	case 1:
		// Proven construction: residues and non-residues.
		X, Xp = f.Residues(), f.NonResidues()
	default:
		var err error
		X, Xp, err = searchMMSSets(q, f)
		if err != nil {
			return nil, nil, err
		}
	}
	mmsSetCacheMu.Lock()
	mmsSetCache[q] = [2][]int{X, Xp}
	mmsSetCacheMu.Unlock()
	return X, Xp, nil
}

// searchMMSSets looks for generator sets for δ ∈ {0, −1} parameters.
// Candidates are unions of the symmetric classes {a, −a} (all singletons
// in characteristic 2), with X' = ξ·X tried first — mirroring the
// structure of the proven δ = 1 sets — before independent combinations.
// The search is deterministic (seeded) and bounded.
func searchMMSSets(q int, f *gf.Field) ([]int, []int, error) {
	size := (q - mmsDelta(q)) / 2
	// Build symmetric classes.
	var classes [][]int
	seen := make([]bool, q)
	for a := 1; a < q; a++ {
		if seen[a] {
			continue
		}
		na := f.Neg(a)
		seen[a] = true
		cl := []int{a}
		if na != a && !seen[na] {
			seen[na] = true
			cl = append(cl, na)
		}
		classes = append(classes, cl)
	}
	scale := func(set []int, s int) []int {
		out := make([]int, len(set))
		for i, x := range set {
			out[i] = f.Mul(s, x)
		}
		return out
	}
	check := func(X, Xp []int) bool {
		if len(X) != size || len(Xp) != size {
			return false
		}
		return mmsSetsGiveDiameter2(q, f, X, Xp)
	}

	// Structured candidate: view the ± classes c_i = {±ξ^i} as the cyclic
	// group Z_m under scaling by ξ (m = number of classes, odd). Taking X
	// as the union of the first (m+1)/2 classes and X' = ξ^((m+1)/2)·X
	// tiles F_q* with a single double-covered class, which satisfies the
	// cross-sheet coverage condition exactly; the intra-column sum
	// conditions are then verified explicitly.
	if m := len(classes); m%2 == 1 {
		take := (m + 1) / 2
		var X []int
		for i := 0; i < take; i++ {
			cls := []int{f.Exp(i)}
			if neg := f.Neg(f.Exp(i)); neg != cls[0] {
				cls = append(cls, neg)
			}
			X = append(X, cls...)
		}
		Xp := scale(X, f.Exp(take))
		if check(X, Xp) {
			return X, Xp, nil
		}
	}

	// Enumerate class unions of total size `size`, trying X' = ξ^j · X —
	// mirroring the δ = 1 structure where X' = ξ·X. The check is the
	// algebraic characterization in mmsSetsGiveDiameter2, so millions of
	// candidates per second are affordable.
	var resultX, resultXp []int
	var tryUnion func(idx, need int, cur []int) bool
	budget := 500000
	if len(classes) > 24 {
		budget = 0 // exhaustive enumeration hopeless; go straight to sampling
	}
	tryUnion = func(idx, need int, cur []int) bool {
		if budget <= 0 {
			return false
		}
		if need == 0 {
			budget--
			if !coversWithSums(q, f, cur) {
				return false
			}
			for j := 1; j < q-1; j++ {
				Xp := scale(cur, f.Exp(j))
				if check(cur, Xp) {
					resultX = append([]int{}, cur...)
					resultXp = Xp
					return true
				}
			}
			return false
		}
		if idx >= len(classes) {
			return false
		}
		for i := idx; i < len(classes); i++ {
			cl := classes[i]
			if len(cl) <= need {
				if tryUnion(i+1, need-len(cl), append(cur, cl...)) {
					return true
				}
			}
		}
		return false
	}
	if tryUnion(0, size, nil) {
		return resultX, resultXp, nil
	}

	// Randomized fallback: sample symmetric sets for X, require the sum
	// coverage condition, then scan all scalings for a compatible X'.
	rng := rand.New(rand.NewSource(int64(q)*7919 + 1))
	for try := 0; try < 20000; try++ {
		X := randomSymmetricSet(rng, classes, size)
		if X == nil {
			break
		}
		if !coversWithSums(q, f, X) {
			continue
		}
		for j := 1; j < q-1; j++ {
			Xp := scale(X, f.Exp(j))
			if check(X, Xp) {
				return X, Xp, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("topo: MMS generator search failed for q=%d", q)
}

func randomSymmetricSet(rng *rand.Rand, classes [][]int, size int) []int {
	perm := rng.Perm(len(classes))
	var out []int
	for _, i := range perm {
		if len(out)+len(classes[i]) <= size {
			out = append(out, classes[i]...)
		}
		if len(out) == size {
			return out
		}
	}
	return nil
}

// mmsSetsGiveDiameter2 decides diameter ≤ 2 of the MMS frame graph
// directly from the generator sets, without building the graph. The
// characterization (provable from the frame structure, and cross-checked
// against mmsDiameter2 in the tests):
//
//  1. Same-column sheet-0 pairs need X ∪ (X+X) ⊇ F_q*; likewise X' for
//     sheet 1 — the only 2-walks between same-column vertices stay in the
//     column.
//  2. Cross-sheet pairs (0,x,y), (1,m,c) at difference t = y−mx−c ≠ 0
//     need t ∈ X ∪ X', so X ∪ X' = F_q*.
//  3. Different-column pairs on either sheet always have a common
//     neighbor on the other sheet (a line through two points / the
//     intersection of two lines), so they impose no condition.
func mmsSetsGiveDiameter2(q int, f *gf.Field, X, Xp []int) bool {
	if !coversWithSums(q, f, X) || !coversWithSums(q, f, Xp) {
		return false
	}
	in := make([]bool, q)
	for _, x := range X {
		in[x] = true
	}
	for _, x := range Xp {
		in[x] = true
	}
	for t := 1; t < q; t++ {
		if !in[t] {
			return false
		}
	}
	return true
}

// coversWithSums reports whether X ∪ (X+X) contains every non-zero field
// element.
func coversWithSums(q int, f *gf.Field, X []int) bool {
	in := make([]bool, q)
	for _, x := range X {
		in[x] = true
	}
	for _, a := range X {
		for _, b := range X {
			in[f.Add(a, b)] = true
		}
	}
	for t := 1; t < q; t++ {
		if !in[t] {
			return false
		}
	}
	return true
}
