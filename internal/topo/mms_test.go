package topo

import (
	"testing"

	"polarstar/internal/gf"
)

func TestMMSDegreeOrderFormulas(t *testing.T) {
	cases := []struct{ q, deg, order int }{
		{5, 7, 50},  // Hoffman–Singleton graph
		{7, 11, 98}, // Bundlefly Table 3 structure graph
		{9, 13, 162},
		{4, 6, 32},
		{8, 12, 128},
		{13, 19, 338},
		{6, 0, 0}, // not a prime power
		{2, 0, 0}, // q ≡ 2 mod 4: no MMS graph
	}
	for _, c := range cases {
		if got := MMSDegree(c.q); got != c.deg {
			t.Errorf("MMSDegree(%d) = %d, want %d", c.q, got, c.deg)
		}
		if got := MMSOrder(c.q); got != c.order {
			t.Errorf("MMSOrder(%d) = %d, want %d", c.q, got, c.order)
		}
	}
}

func TestMMSConstruction(t *testing.T) {
	// All three residue classes (δ = 1, 0, −1) and both characteristics.
	for _, q := range []int{4, 5, 7, 8, 9, 11, 13, 16} {
		m := must(NewMMS(q))
		if m.G.N() != 2*q*q {
			t.Errorf("MMS(%d) order = %d, want %d", q, m.G.N(), 2*q*q)
		}
		if !m.G.IsRegular() || m.G.MaxDegree() != MMSDegree(q) {
			t.Errorf("MMS(%d) not %d-regular (max %d, min %d)", q, MMSDegree(q), m.G.MaxDegree(), m.G.MinDegree())
		}
		if d := m.G.Diameter(); d != 2 {
			t.Errorf("MMS(%d) diameter = %d, want 2", q, d)
		}
	}
}

func TestMMSHoffmanSingleton(t *testing.T) {
	// MMS(5) is the Hoffman–Singleton graph: 50 vertices, 7-regular,
	// diameter 2, girth 5 (no triangles, no 4-cycles) — it meets the
	// degree-2 Moore bound exactly.
	m := must(NewMMS(5))
	g := m.G
	if g.N() != 50 || g.M() != 175 {
		t.Fatalf("n=%d m=%d, want 50, 175", g.N(), g.M())
	}
	// No triangles: neighbors of any vertex form an independent set.
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				if g.HasEdge(int(nb[i]), int(nb[j])) {
					t.Fatalf("triangle at %d-%d-%d", v, nb[i], nb[j])
				}
			}
		}
	}
	// No 4-cycles: any two vertices share at most one common neighbor.
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			common := 0
			for _, w := range g.Neighbors(u) {
				if g.HasEdge(int(w), v) {
					common++
				}
			}
			if common > 1 {
				t.Fatalf("4-cycle through %d,%d (%d common neighbors)", u, v, common)
			}
		}
	}
}

func TestMMSGeneratorSearchLargeQ(t *testing.T) {
	// The structured interval candidate must cover every residue class,
	// including the δ = 0 and δ = −1 parameters that have no
	// QR-partition construction.
	for _, q := range []int{19, 23, 27, 32, 43, 59, 64, 67} {
		X, Xp, err := mmsGeneratorSets(q)
		if err != nil {
			t.Errorf("q=%d: %v", q, err)
			continue
		}
		f := gf.MustNew(q)
		if !mmsSetsGiveDiameter2(q, f, X, Xp) {
			t.Errorf("q=%d: algebraic diameter-2 check failed", q)
		}
	}
}

func TestMMSAlgebraicCheckMatchesGraph(t *testing.T) {
	// The algebraic characterization must agree with ground-truth BFS on
	// full graphs, for both accepting and rejecting instances.
	for _, q := range []int{4, 5, 7, 8, 9, 11} {
		f := gf.MustNew(q)
		X, Xp, err := mmsGeneratorSets(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mmsSetsGiveDiameter2(q, f, X, Xp), mmsDiameter2(q, f, X, Xp); got != want {
			t.Errorf("q=%d: algebraic=%v graph=%v on searched sets", q, got, want)
		}
	}
	// A deliberately bad candidate: a tiny X cannot satisfy the column
	// condition.
	f := gf.MustNew(7)
	bad := []int{1, 6}
	if mmsSetsGiveDiameter2(7, f, bad, []int{2, 5, 3, 4}) {
		t.Error("algebraic check accepted an undersized X")
	}
	if mmsDiameter2(7, f, bad, []int{2, 5, 3, 4}) {
		t.Error("graph check accepted an undersized X")
	}
}

func TestMMSInfeasible(t *testing.T) {
	for _, q := range []int{2, 6, 10, 15} {
		if _, err := NewMMS(q); err == nil {
			t.Errorf("NewMMS(%d) succeeded, want error", q)
		}
	}
}

// mmsDiameter2 checks diameter ≤ 2 of the candidate MMS graph using
// bitset neighborhood closure. It is the ground-truth check the algebraic
// characterization is tested against.
func mmsDiameter2(q int, f *gf.Field, X, Xp []int) bool {
	n := 2 * q * q
	words := (n + 63) / 64
	adj := make([][]int32, n)
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
	addEdge := func(u, v int) {
		adj[u] = append(adj[u], int32(v))
		adj[v] = append(adj[v], int32(u))
	}
	for x := 0; x < q; x++ {
		for y := 0; y < q; y++ {
			for yp := y + 1; yp < q; yp++ {
				if inX[f.Sub(y, yp)] {
					addEdge(id0(x, y), id0(x, yp))
				}
			}
		}
	}
	for m := 0; m < q; m++ {
		for c := 0; c < q; c++ {
			for cp := c + 1; cp < q; cp++ {
				if inXp[f.Sub(c, cp)] {
					addEdge(id1(m, c), id1(m, cp))
				}
			}
		}
	}
	for x := 0; x < q; x++ {
		for m := 0; m < q; m++ {
			for c := 0; c < q; c++ {
				addEdge(id0(x, f.Add(f.Mul(m, x), c)), id1(m, c))
			}
		}
	}
	bits := make([]uint64, n*words)
	for v := 0; v < n; v++ {
		row := bits[v*words : (v+1)*words]
		row[v/64] |= 1 << (v % 64)
		for _, w := range adj[v] {
			row[w/64] |= 1 << (w % 64)
		}
	}
	closure := make([]uint64, words)
	for v := 0; v < n; v++ {
		copy(closure, bits[v*words:(v+1)*words])
		for _, w := range adj[v] {
			row := bits[int(w)*words : (int(w)+1)*words]
			for i := range closure {
				closure[i] |= row[i]
			}
		}
		want := uint64(^uint64(0))
		for i := 0; i < words; i++ {
			if i == words-1 && n%64 != 0 {
				want = (1 << (n % 64)) - 1
			}
			if closure[i]&want != want {
				return false
			}
		}
	}
	return true
}
