package gf

import (
	"testing"
	"testing/quick"
)

func TestPrimePower(t *testing.T) {
	cases := []struct {
		q, p, k int
		ok      bool
	}{
		{2, 2, 1, true}, {3, 3, 1, true}, {4, 2, 2, true}, {5, 5, 1, true},
		{6, 0, 0, false}, {7, 7, 1, true}, {8, 2, 3, true}, {9, 3, 2, true},
		{10, 0, 0, false}, {12, 0, 0, false}, {16, 2, 4, true},
		{25, 5, 2, true}, {27, 3, 3, true}, {32, 2, 5, true},
		{36, 0, 0, false}, {49, 7, 2, true}, {64, 2, 6, true},
		{81, 3, 4, true}, {121, 11, 2, true}, {125, 5, 3, true},
		{128, 2, 7, true}, {1, 0, 0, false}, {0, 0, 0, false},
	}
	for _, c := range cases {
		p, k, ok := PrimePower(c.q)
		if ok != c.ok || p != c.p || k != c.k {
			t.Errorf("PrimePower(%d) = (%d,%d,%v), want (%d,%d,%v)", c.q, p, k, ok, c.p, c.k, c.ok)
		}
	}
}

func TestIsPrime(t *testing.T) {
	primes := map[int]bool{2: true, 3: true, 4: false, 5: true, 9: false, 13: true, 91: false, 97: true, 1: false, 0: false}
	for n, want := range primes {
		if got := IsPrime(n); got != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNewRejectsNonPrimePower(t *testing.T) {
	for _, q := range []int{0, 1, 6, 10, 12, 15, 100} {
		if _, err := New(q); err == nil {
			t.Errorf("New(%d) succeeded, want error", q)
		}
	}
}

// fieldOrders covers prime fields, even-characteristic extensions and odd
// extensions, matching the q values that appear in paper configurations.
var fieldOrders = []int{2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 49, 64, 81}

func TestFieldAxioms(t *testing.T) {
	for _, q := range fieldOrders {
		f := MustNew(q)
		for a := 0; a < q; a++ {
			if f.Add(a, 0) != a {
				t.Fatalf("GF(%d): %d+0 != %d", q, a, a)
			}
			if f.Mul(a, 1) != a {
				t.Fatalf("GF(%d): %d*1 != %d", q, a, a)
			}
			if f.Add(a, f.Neg(a)) != 0 {
				t.Fatalf("GF(%d): %d + (-%d) != 0", q, a, a)
			}
			if a != 0 && f.Mul(a, f.Inv(a)) != 1 {
				t.Fatalf("GF(%d): %d * %d^-1 != 1", q, a, a)
			}
			for b := 0; b < q; b++ {
				if f.Add(a, b) != f.Add(b, a) {
					t.Fatalf("GF(%d): addition not commutative at (%d,%d)", q, a, b)
				}
				if f.Mul(a, b) != f.Mul(b, a) {
					t.Fatalf("GF(%d): multiplication not commutative at (%d,%d)", q, a, b)
				}
			}
		}
	}
}

func TestFieldAssociativityAndDistributivity(t *testing.T) {
	// Exhaustive on small fields, sampled on larger ones via quick.
	for _, q := range []int{4, 5, 8, 9} {
		f := MustNew(q)
		for a := 0; a < q; a++ {
			for b := 0; b < q; b++ {
				for c := 0; c < q; c++ {
					if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
						t.Fatalf("GF(%d): addition not associative at (%d,%d,%d)", q, a, b, c)
					}
					if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
						t.Fatalf("GF(%d): multiplication not associative at (%d,%d,%d)", q, a, b, c)
					}
					if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
						t.Fatalf("GF(%d): not distributive at (%d,%d,%d)", q, a, b, c)
					}
				}
			}
		}
	}

	f := MustNew(81)
	prop := func(a, b, c uint8) bool {
		x, y, z := int(a)%81, int(b)%81, int(c)%81
		return f.Mul(x, f.Add(y, z)) == f.Add(f.Mul(x, y), f.Mul(x, z)) &&
			f.Mul(f.Mul(x, y), z) == f.Mul(x, f.Mul(y, z))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Errorf("GF(81) distributivity/associativity: %v", err)
	}
}

// TestGeneratorOrder: Exp walks the powers of a primitive element, so
// Exp(0..q-2) lists every non-zero element once and g^(q-1) == 1.
func TestGeneratorOrder(t *testing.T) {
	for _, q := range fieldOrders {
		f := MustNew(q)
		g := f.Exp(1)
		seen := make(map[int]bool)
		x := 1
		for i := 0; i < q-1; i++ {
			if seen[x] {
				t.Fatalf("GF(%d): generator %d has order < q-1", q, g)
			}
			if f.Exp(i) != x {
				t.Fatalf("GF(%d): Exp(%d) = %d, want %d", q, i, f.Exp(i), x)
			}
			seen[x] = true
			x = f.Mul(x, g)
		}
		if x != 1 {
			t.Fatalf("GF(%d): generator %d: g^(q-1) != 1", q, g)
		}
	}
}

func TestResidueCounts(t *testing.T) {
	for _, q := range fieldOrders {
		f := MustNew(q)
		n := len(f.Residues())
		want := (q - 1) / 2
		if q%2 == 0 {
			want = q - 1 // every non-zero element is a square in even characteristic
		}
		if n != want {
			t.Errorf("GF(%d): %d residues, want %d", q, n, want)
		}
	}
}

func TestResiduesMultiplicative(t *testing.T) {
	// Product of two non-residues is a residue in odd characteristic.
	for _, q := range []int{5, 7, 9, 11, 13, 25, 27} {
		f := MustNew(q)
		nr := f.NonResidues()
		for _, a := range nr {
			for _, b := range nr {
				if !f.IsResidue(f.Mul(a, b)) {
					t.Fatalf("GF(%d): product of non-residues %d*%d not a residue", q, a, b)
				}
			}
		}
	}
}

func TestDot(t *testing.T) {
	f := MustNew(5)
	// (1,2,3)·(4,0,2) = 4 + 0 + 6 = 10 = 0 mod 5
	if got := f.Dot([]int{1, 2, 3}, []int{4, 0, 2}); got != 0 {
		t.Errorf("Dot = %d, want 0", got)
	}
	if got := f.Dot([]int{1, 1}, []int{2, 2}); got != 4 {
		t.Errorf("Dot = %d, want 4", got)
	}
}

func TestGF4Structure(t *testing.T) {
	// GF(4) = {0,1,w,w+1} with w^2 = w+1 for the canonical irreducible
	// x^2+x+1. Check characteristic-2 facts: a+a=0, Frobenius is a
	// field automorphism.
	f := MustNew(4)
	for a := 0; a < 4; a++ {
		if f.Add(a, a) != 0 {
			t.Errorf("GF(4): %d+%d != 0", a, a)
		}
		for b := 0; b < 4; b++ {
			lhs := f.Mul(f.Add(a, b), f.Add(a, b))
			rhs := f.Add(f.Mul(a, a), f.Mul(b, b))
			if lhs != rhs {
				t.Errorf("GF(4): Frobenius not additive at (%d,%d)", a, b)
			}
		}
	}
}

func TestSubDiv(t *testing.T) {
	for _, q := range []int{7, 8, 9} {
		f := MustNew(q)
		for a := 0; a < q; a++ {
			for b := 0; b < q; b++ {
				if f.Add(f.Sub(a, b), b) != a {
					t.Fatalf("GF(%d): (a-b)+b != a at (%d,%d)", q, a, b)
				}
				if b != 0 && f.Mul(f.Mul(a, f.Inv(b)), b) != a {
					t.Fatalf("GF(%d): (a/b)*b != a at (%d,%d)", q, a, b)
				}
			}
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	f := MustNew(5)
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) did not panic")
		}
	}()
	f.Inv(0)
}
