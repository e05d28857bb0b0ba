package flowsim

import (
	"math/rand"
	"testing"

	"polarstar/internal/route"
	"polarstar/internal/topo"
	"polarstar/internal/traffic"
)

func testNetwork(adaptive bool, seed int64) (*Network, *topo.PolarStar) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	p := DefaultParams(seed)
	p.Adaptive = adaptive
	cfg := traffic.Config{Routers: ps.G.N(), PerRouter: 2}
	return New(route.NewPolarStar(ps), cfg, ps.G, nil, p), ps
}

func TestSendPipelinedTiming(t *testing.T) {
	n, _ := testNetwork(false, 1)
	// Endpoints 0 and 3 sit on routers 0 and 1. Distance router 0 -> 1
	// varies; compute expected bounds instead of exact values:
	// time = hops*20ns + serialization once (pipelined).
	bytes := 8192.0 // 2048 ns at 4 B/ns
	tm := n.Send(0, 3, bytes, 0)
	if tm < 2048+2*20 {
		t.Errorf("delivery %f below physical bound", tm)
	}
	if tm > 2048+6*20 {
		t.Errorf("delivery %f above the diameter-3+endpoints bound", tm)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	n, _ := testNetwork(false, 2)
	// Two messages from the same endpoint at the same time must
	// serialize on the injection link.
	t1 := n.Send(0, 50, 4096, 0)
	t2 := n.Send(0, 50, 4096, 0)
	if t2 < t1+1024 {
		t.Errorf("second message (%f) not serialized after first (%f)", t2, t1)
	}
}

func TestAdaptiveAvoidsHotLink(t *testing.T) {
	// Saturate the minimal route's first network link with traffic from a
	// sibling endpoint on the same router, then check that adaptive
	// routing delivers a probe message sooner than oblivious MIN routing
	// (the probe's own injection link is idle in both cases).
	run := func(adaptive bool) float64 {
		n, _ := testNetwork(adaptive, 3)
		for i := 0; i < 20; i++ {
			n.Send(1, 100, 64*1024, 0) // endpoint 1 shares router 0
		}
		// Probe endpoint 101: same destination router (and thus the same
		// congested minimal first link), but its own idle ejection link.
		return n.Send(0, 101, 4096, 0)
	}
	min := run(false)
	ug := run(true)
	if ug >= min {
		t.Errorf("adaptive delivery %f not faster than oblivious %f under contention", ug, min)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, _ := testNetwork(true, 4)
	b, _ := testNetwork(true, 4)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		src, dst := rng.Intn(100), rng.Intn(100)
		if src == dst {
			continue
		}
		ta := a.Send(src, dst, 1024, float64(i))
		tb := b.Send(src, dst, 1024, float64(i))
		if ta != tb {
			t.Fatalf("non-deterministic at %d: %f vs %f", i, ta, tb)
		}
	}
}
