package traffic

import (
	"math/rand"
	"testing"
)

func TestUniform(t *testing.T) {
	c := Config{Routers: 10, PerRouter: 4}
	u := Uniform{C: c}
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, c.Endpoints())
	for i := 0; i < 40000; i++ {
		d := u.Dest(7, rng)
		if d == 7 || d < 0 || d >= c.Endpoints() {
			t.Fatalf("bad destination %d", d)
		}
		counts[d]++
	}
	// Roughly uniform over the other 39 endpoints.
	for ep, n := range counts {
		if ep == 7 {
			continue
		}
		if n < 700 || n > 1400 {
			t.Errorf("endpoint %d hit %d times, expected ~1025", ep, n)
		}
	}
}

func TestPermutationIsFixedAndComplete(t *testing.T) {
	c := Config{Routers: 12, PerRouter: 3}
	p := NewPermutation(c, 42)
	seen := map[int]bool{}
	for src := 0; src < c.Endpoints(); src++ {
		d := p.Dest(src, nil)
		if d2 := p.Dest(src, nil); d2 != d {
			t.Fatal("permutation not fixed")
		}
		if c.RouterOf(d) == c.RouterOf(src) {
			t.Fatalf("endpoint %d maps to its own host", src)
		}
		if d%c.PerRouter != src%c.PerRouter {
			t.Fatalf("local index not preserved: %d -> %d", src, d)
		}
		seen[d] = true
	}
	if len(seen) != c.Endpoints() {
		t.Errorf("permutation not a bijection: %d images", len(seen))
	}
}

func TestPermutationNoFixedPointsManySeeds(t *testing.T) {
	c := Config{Routers: 9, PerRouter: 1}
	for seed := int64(0); seed < 50; seed++ {
		p := NewPermutation(c, seed)
		for src := 0; src < c.Endpoints(); src++ {
			if p.Dest(src, nil) == src {
				t.Fatalf("seed %d: fixed point at %d", seed, src)
			}
		}
	}
}

func TestBitShuffle(t *testing.T) {
	c := Config{Routers: 10, PerRouter: 4} // 40 endpoints -> b = 5 (32 active)
	s := NewBitShuffle(c)
	// d = rotate-left(src) within 5 bits: src=0b00001 -> 0b00010.
	if d := s.Dest(1, nil); d != 2 {
		t.Errorf("Dest(1) = %d, want 2", d)
	}
	// src=0b10000 -> 0b00001.
	if d := s.Dest(16, nil); d != 1 {
		t.Errorf("Dest(16) = %d, want 1", d)
	}
	// Endpoints beyond the power-of-two block idle.
	if d := s.Dest(33, nil); d != -1 {
		t.Errorf("Dest(33) = %d, want -1", d)
	}
	// Fixed points (all-zeros, all-ones) are idle.
	if d := s.Dest(0, nil); d != -1 {
		t.Errorf("Dest(0) = %d, want -1", d)
	}
	if d := s.Dest(31, nil); d != -1 {
		t.Errorf("Dest(31) = %d, want -1", d)
	}
	// Shuffle is a bijection on the non-fixed points.
	seen := map[int]bool{}
	for src := 0; src < 32; src++ {
		if d := s.Dest(src, nil); d >= 0 {
			if seen[d] {
				t.Fatalf("duplicate image %d", d)
			}
			seen[d] = true
		}
	}
}

func TestBitReverse(t *testing.T) {
	c := Config{Routers: 16, PerRouter: 1} // b = 4
	r := NewBitReverse(c)
	// 0b0001 -> 0b1000.
	if d := r.Dest(1, nil); d != 8 {
		t.Errorf("Dest(1) = %d, want 8", d)
	}
	// Palindromes are idle.
	if d := r.Dest(9, nil); d != -1 { // 0b1001 reversed is itself
		t.Errorf("Dest(9) = %d, want -1", d)
	}
	// Involution: reverse twice is identity.
	for src := 0; src < 16; src++ {
		d := r.Dest(src, nil)
		if d >= 0 && r.Dest(d, nil) != src {
			t.Fatalf("bit reverse not involutive at %d", src)
		}
	}
}

func TestAdversarial(t *testing.T) {
	// 6 routers in 3 groups of 2, 2 endpoints each; distances via a
	// simple metric: |a-b|.
	c := Config{Routers: 6, PerRouter: 2}
	groupOf := func(r int) int { return r / 2 }
	dist := func(a, b int) int {
		d := a - b
		if d < 0 {
			d = -d
		}
		return d
	}
	a := NewAdversarial(c, 3, groupOf, dist)
	for src := 0; src < c.Endpoints(); src++ {
		d := a.Dest(src, nil)
		sg := groupOf(c.RouterOf(src))
		dg := groupOf(c.RouterOf(d))
		if dg != (sg+1)%3 {
			t.Fatalf("endpoint %d: group %d -> %d, want %d", src, sg, dg, (sg+1)%3)
		}
		if d%c.PerRouter != src%c.PerRouter {
			t.Fatalf("local index not preserved")
		}
	}
	// Router 0 (group 0) must target the farther router of group 1,
	// which is router 3.
	if got := c.RouterOf(a.Dest(0, nil)); got != 3 {
		t.Errorf("router 0 targets %d, want 3", got)
	}
}

func TestByName(t *testing.T) {
	c := Config{Routers: 8, PerRouter: 2}
	groupOf := func(r int) int { return r / 2 }
	dist := func(a, b int) int { return 1 }
	for _, name := range []string{"uniform", "permutation", "bitshuffle", "bitreverse", "adversarial"} {
		p, err := ByName(name, c, 4, groupOf, dist, 1)
		if err != nil || p.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("nope", c, 4, groupOf, dist, 1); err == nil {
		t.Error("unknown pattern should error")
	}
}

func TestConfigWithHosts(t *testing.T) {
	c := Config{Routers: 9, PerRouter: 2, Hosts: []int{0, 3, 6}}
	if c.Endpoints() != 6 || c.NumHosts() != 3 {
		t.Fatalf("endpoints=%d hosts=%d", c.Endpoints(), c.NumHosts())
	}
	if c.RouterOf(0) != 0 || c.RouterOf(2) != 3 || c.RouterOf(5) != 6 {
		t.Error("RouterOf with explicit hosts wrong")
	}
}
