// Package traffic implements the synthetic traffic patterns of §9.4 and
// the adversarial pattern of §9.6. Patterns map source endpoints to
// destination endpoints; endpoints are numbered contiguously per router
// (endpoint e lives on router e / PerRouter), matching the paper's
// endpoint-ID assignment for hierarchical topologies.
package traffic

import (
	"fmt"
	"math/rand"
)

// Config describes the endpoint arrangement of a simulated network.
// Endpoints are numbered contiguously per hosting switch: endpoint e
// lives on host block e / PerRouter. Direct networks host endpoints on
// every switch (Hosts == nil); indirect ones (fat-tree, Megafly) list
// their leaf switches explicitly.
type Config struct {
	Routers   int   // number of switches
	PerRouter int   // endpoints per hosting switch (p)
	Hosts     []int // hosting switches in endpoint order (nil: all switches)
}

// NumHosts returns the number of endpoint-hosting switches.
func (c Config) NumHosts() int {
	if c.Hosts != nil {
		return len(c.Hosts)
	}
	return c.Routers
}

// Endpoints returns the total endpoint count.
func (c Config) Endpoints() int { return c.NumHosts() * c.PerRouter }

// RouterOf returns the switch hosting endpoint e.
func (c Config) RouterOf(e int) int {
	h := e / c.PerRouter
	if c.Hosts != nil {
		return c.Hosts[h]
	}
	return h
}

// Pattern maps each source endpoint to a destination endpoint.
type Pattern interface {
	Name() string
	// Dest returns the destination endpoint for a packet from src, or -1
	// when src does not participate in the pattern (it stays idle).
	Dest(src int, rng *rand.Rand) int
}

// FixedPattern is implemented by patterns whose source→destination map is
// fixed for the whole run (everything except Uniform). The simulator uses
// it to pre-validate reachability of every pair the pattern will address,
// failing fast instead of injecting packets that can never drain.
type FixedPattern interface {
	Pattern
	// FixedDest returns the destination endpoint src will always send to,
	// or -1 when src stays idle.
	FixedDest(src int) int
}

// Uniform is uniform-random traffic: every packet picks an independent
// uniformly random destination endpoint other than the source.
type Uniform struct{ C Config }

// Name implements Pattern.
func (u Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (u Uniform) Dest(src int, rng *rand.Rand) int {
	n := u.C.Endpoints()
	d := rng.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// Permutation is random-permutation traffic: a fixed random permutation τ
// of endpoint-hosting switches; endpoint (h, l) sends only to endpoint
// (τ(h), l) (§9.4).
type Permutation struct {
	C    Config
	perm []int
}

// NewPermutation draws the host permutation from the seed. Fixed points
// are displaced so no host talks to itself (when more than one exists).
func NewPermutation(c Config, seed int64) *Permutation {
	rng := rand.New(rand.NewSource(seed))
	n := c.NumHosts()
	perm := rng.Perm(n)
	// Kick out fixed points with a cyclic shift among them.
	var fixed []int
	for r, t := range perm {
		if r == t {
			fixed = append(fixed, r)
		}
	}
	if len(fixed) == 1 && n > 1 {
		other := (fixed[0] + 1) % n
		perm[fixed[0]], perm[other] = perm[other], perm[fixed[0]]
	} else {
		for i := range fixed {
			perm[fixed[i]] = fixed[(i+1)%len(fixed)]
		}
	}
	return &Permutation{C: c, perm: perm}
}

// Name implements Pattern.
func (p *Permutation) Name() string { return "permutation" }

// Dest implements Pattern.
func (p *Permutation) Dest(src int, _ *rand.Rand) int {
	h, l := src/p.C.PerRouter, src%p.C.PerRouter
	return p.perm[h]*p.C.PerRouter + l
}

// FixedDest implements FixedPattern.
func (p *Permutation) FixedDest(src int) int { return p.Dest(src, nil) }

// bitPattern is the shared machinery of BitShuffle and BitReverse: the
// pattern runs on the largest power-of-two block of endpoints (§9.4);
// endpoints beyond 2^b stay idle.
type bitPattern struct {
	C    Config
	bits int
}

func newBitPattern(c Config) bitPattern {
	b := 0
	for (1 << (b + 1)) <= c.Endpoints() {
		b++
	}
	return bitPattern{C: c, bits: b}
}

// BitShuffle shifts the endpoint address bits left by one:
// d_i = s_{(i-1) mod b}.
type BitShuffle struct{ bitPattern }

// NewBitShuffle builds the pattern for the given config.
func NewBitShuffle(c Config) *BitShuffle { return &BitShuffle{newBitPattern(c)} }

// Name implements Pattern.
func (s *BitShuffle) Name() string { return "bitshuffle" }

// Dest implements Pattern.
func (s *BitShuffle) Dest(src int, _ *rand.Rand) int {
	if src >= 1<<s.bits {
		return -1
	}
	b := s.bits
	hi := (src >> (b - 1)) & 1
	d := ((src << 1) | hi) & ((1 << b) - 1)
	if d == src {
		return -1
	}
	return d
}

// FixedDest implements FixedPattern.
func (s *BitShuffle) FixedDest(src int) int { return s.Dest(src, nil) }

// BitReverse reverses the endpoint address bits: d_i = s_{b-i-1}.
type BitReverse struct{ bitPattern }

// NewBitReverse builds the pattern for the given config.
func NewBitReverse(c Config) *BitReverse { return &BitReverse{newBitPattern(c)} }

// Name implements Pattern.
func (r *BitReverse) Name() string { return "bitreverse" }

// Dest implements Pattern.
func (r *BitReverse) Dest(src int, _ *rand.Rand) int {
	if src >= 1<<r.bits {
		return -1
	}
	d := 0
	for i := 0; i < r.bits; i++ {
		d |= ((src >> i) & 1) << (r.bits - 1 - i)
	}
	if d == src {
		return -1
	}
	return d
}

// FixedDest implements FixedPattern.
func (r *BitReverse) FixedDest(src int) int { return r.Dest(src, nil) }

// Adversarial is the §9.6 worst-case pattern for hierarchical topologies:
// all endpoints of a group transmit only to endpoints of one paired
// group, and each source targets a router of that group at maximal hop
// distance, enforcing the longest minimal paths through the congested
// inter-group links.
type Adversarial struct {
	C    Config
	dest []int // source endpoint -> destination endpoint
}

// GroupOfFn abstracts the topology grouping.
type GroupOfFn func(router int) int

// DistFn returns hop distance between routers.
type DistFn func(a, b int) int

// NewAdversarial pairs each group g with group (g+1) mod G and, for each
// source endpoint, selects the farthest endpoint-hosting switch of the
// paired group (breaking ties by switch id) as destination, preserving
// the endpoint's local index.
func NewAdversarial(c Config, numGroups int, groupOf GroupOfFn, dist DistFn) *Adversarial {
	a := &Adversarial{C: c, dest: make([]int, c.Endpoints())}
	// Host blocks per group.
	hostsInGroup := make([][]int, numGroups) // host-block indices
	for h := 0; h < c.NumHosts(); h++ {
		r := c.RouterOf(h * c.PerRouter)
		g := groupOf(r)
		hostsInGroup[g] = append(hostsInGroup[g], h)
	}
	for h := 0; h < c.NumHosts(); h++ {
		r := c.RouterOf(h * c.PerRouter)
		target := (groupOf(r) + 1) % numGroups
		bestH, bestD := -1, -1
		for _, th := range hostsInGroup[target] {
			tr := c.RouterOf(th * c.PerRouter)
			if d := dist(r, tr); d > bestD {
				bestD, bestH = d, th
			}
		}
		for l := 0; l < c.PerRouter; l++ {
			if bestH < 0 {
				a.dest[h*c.PerRouter+l] = -1
			} else {
				a.dest[h*c.PerRouter+l] = bestH*c.PerRouter + l
			}
		}
	}
	return a
}

// Name implements Pattern.
func (a *Adversarial) Name() string { return "adversarial" }

// Dest implements Pattern.
func (a *Adversarial) Dest(src int, _ *rand.Rand) int { return a.dest[src] }

// FixedDest implements FixedPattern.
func (a *Adversarial) FixedDest(src int) int { return a.dest[src] }

// ByName constructs a standard pattern by name (used by cmd/pssim).
func ByName(name string, c Config, numGroups int, groupOf GroupOfFn, dist DistFn, seed int64) (Pattern, error) {
	switch name {
	case "uniform":
		return Uniform{C: c}, nil
	case "permutation":
		return NewPermutation(c, seed), nil
	case "bitshuffle":
		return NewBitShuffle(c), nil
	case "bitreverse":
		return NewBitReverse(c), nil
	case "adversarial":
		return NewAdversarial(c, numGroups, groupOf, dist), nil
	}
	return nil, fmt.Errorf("traffic: unknown pattern %q", name)
}
