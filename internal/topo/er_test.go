package topo

import "testing"

var erOrders = []int{2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19}

func TestERBasicInvariants(t *testing.T) {
	for _, q := range erOrders {
		er := must(NewER(q))
		if er.N() != q*q+q+1 {
			t.Errorf("ER_%d order = %d, want %d", q, er.N(), q*q+q+1)
		}
		if er.G.NumLoops() != q+1 {
			t.Errorf("ER_%d quadric vertices = %d, want %d", q, er.G.NumLoops(), q+1)
		}
		// Degrees: q+1 for non-quadric, q for quadric vertices.
		for v := 0; v < er.N(); v++ {
			want := q + 1
			if er.IsQuadric(v) {
				want = q
			}
			if er.G.Degree(v) != want {
				t.Fatalf("ER_%d vertex %d degree = %d, want %d", q, v, er.G.Degree(v), want)
			}
		}
	}
}

func TestERDiameter2(t *testing.T) {
	for _, q := range erOrders {
		er := must(NewER(q))
		if d := er.G.Diameter(); d != 2 {
			t.Errorf("ER_%d diameter = %d, want 2", q, d)
		}
	}
}

func TestERPropertyR(t *testing.T) {
	// Theorem 1: ER_q has Property R for all prime powers q (self-loops
	// admitted as walk steps).
	for _, q := range []int{2, 3, 4, 5, 7, 8, 9, 11, 13} {
		er := must(NewER(q))
		if !HasPropertyR(er.G, 2) {
			t.Errorf("ER_%d lacks Property R", q)
		}
	}
}

func TestERCommonNeighborOracle(t *testing.T) {
	for _, q := range []int{3, 4, 5, 7, 9} {
		er := must(NewER(q))
		n := er.N()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				w := er.CommonNeighbor(u, v)
				// w must be orthogonal to both u and v, i.e. the walk
				// u–w–v exists (using loops where w==u or w==v).
				okU := er.G.HasEdge(u, w) || (u == w && er.IsQuadric(u))
				okV := er.G.HasEdge(w, v) || (w == v && er.IsQuadric(v))
				if u == w && w == v {
					okU = er.IsQuadric(u)
					okV = okU
				}
				if u == v && w != u {
					// u–w–u: just need the edge.
					okU = er.G.HasEdge(u, w)
					okV = okU
				}
				if !okU || !okV {
					t.Fatalf("ER_%d CommonNeighbor(%d,%d)=%d does not close a 2-walk", q, u, v, w)
				}
			}
		}
	}
}

func TestERVertexOfNormalization(t *testing.T) {
	er := must(NewER(5))
	f := er.Field
	for v := 0; v < er.N(); v++ {
		vec := er.vecs[v]
		// Any non-zero scalar multiple maps back to v.
		for s := 1; s < 5; s++ {
			scaled := [3]int{f.Mul(vec[0], s), f.Mul(vec[1], s), f.Mul(vec[2], s)}
			got, ok := er.VertexOf(scaled)
			if !ok || got != v {
				t.Fatalf("VertexOf(%v) = (%d,%v), want %d", scaled, got, ok, v)
			}
		}
	}
	if _, ok := er.VertexOf([3]int{0, 0, 0}); ok {
		t.Error("VertexOf(zero) should fail")
	}
}

func TestNewERRejectsNonPrimePower(t *testing.T) {
	for _, q := range []int{0, 1, 6, 10, 12} {
		if _, err := NewER(q); err == nil {
			t.Errorf("NewER(%d) succeeded, want error", q)
		}
	}
}
