package motifs

import (
	"testing"

	"polarstar/internal/flowsim"
	"polarstar/internal/route"
	"polarstar/internal/sim"
)

// Extensions beyond the paper's two motifs, kept as comparators for the
// tests below. §10 motivates Allreduce as the key collective; comparing
// algorithms on the same topology shows how message-count/size
// trade-offs interact with the network (large messages favour the
// bandwidth-optimal ring and Rabenseifner; small messages favour the
// log-round recursive doubling). Every comparator takes ranks no larger
// than the network's endpoint count.

// AllreduceRing simulates the bandwidth-optimal ring allreduce:
// reduce-scatter then allgather, each 2(p−1) steps of msgBytes/p chunks.
// Returns the completion time in ns.
func AllreduceRing(n *flowsim.Network, ranks int, msgBytes float64, iters int) float64 {
	p := ranks
	if p < 2 {
		return 0
	}
	chunk := msgBytes / float64(p)
	ready := make([]float64, p)
	arrive := make([]float64, p)
	for it := 0; it < iters; it++ {
		for phase := 0; phase < 2; phase++ { // reduce-scatter, allgather
			for step := 0; step < p-1; step++ {
				for r := 0; r < p; r++ {
					next := (r + 1) % p
					arrive[next] = n.Send(r, next, chunk, ready[r])
				}
				for r := 0; r < p; r++ {
					if arrive[r] > ready[r] {
						ready[r] = arrive[r]
					}
				}
			}
		}
	}
	return maxOf(ready)
}

// TreeAllreduce simulates an in-network-style allreduce over k
// edge-disjoint spanning trees (Dawkins et al., "Edge-Disjoint Spanning
// Trees on Star-Product Networks"): the buffer is split into k shards;
// shard i reduces up tree i (leaves → root) and broadcasts back down.
// Trees run concurrently and each uses its own links, so bandwidth
// scales with k. The first endpoint of each router (perRouter endpoints
// apiece) acts as the router's rank, the in-network model. Returns the
// completion time in ns.
func TreeAllreduce(n *flowsim.Network, perRouter int, trees []*route.SpanningTree, msgBytes float64, iters int) float64 {
	if len(trees) == 0 {
		return 0
	}
	rankOf := func(router int) int { return router * perRouter }
	shard := msgBytes / float64(len(trees))
	finish := 0.0
	ready := make([]float64, len(trees[0].Parent))
	for it := 0; it < iters; it++ {
		for _, tree := range trees {
			children := make([][]int32, len(tree.Parent))
			for v, p := range tree.Parent {
				if p >= 0 {
					children[p] = append(children[p], int32(v))
				}
			}
			// Reduce: post-order — a node sends to its parent once all
			// its children's contributions arrived.
			var up func(v int) float64
			up = func(v int) float64 {
				t := ready[v]
				for _, c := range children[v] {
					childDone := up(int(c))
					arr := n.Send(rankOf(int(c)), rankOf(v), shard, childDone)
					if arr > t {
						t = arr
					}
				}
				return t
			}
			rootReady := up(tree.Root)
			// Broadcast: pre-order down the same tree.
			var down func(v int, at float64)
			done := make([]float64, len(tree.Parent))
			down = func(v int, at float64) {
				done[v] = at
				for _, c := range children[v] {
					down(int(c), n.Send(rankOf(v), rankOf(int(c)), shard, at))
				}
			}
			down(tree.Root, rootReady)
			for v, t := range done {
				if t > ready[v] {
					ready[v] = t
				}
				if t > finish {
					finish = t
				}
			}
		}
	}
	return finish
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestRingAllreduceCompletes(t *testing.T) {
	n := network("ps-iq-small", false, 1)
	tm := AllreduceRing(n, 64, 64*1024, 1)
	if tm <= 0 {
		t.Fatal("non-positive time")
	}
	// 2(p−1) serialized chunk steps is the bandwidth floor per rank.
	chunkNS := 64.0 * 1024 / 64 / 4
	if tm < 2*63*chunkNS {
		t.Errorf("ring allreduce %f beats the bandwidth floor", tm)
	}
}

func TestRabenseifnerCompletes(t *testing.T) {
	n := network("ps-iq-small", false, 2)
	tm := AllreduceRabenseifner(n, 64, 64*1024, 1)
	if tm <= 0 {
		t.Fatal("non-positive time")
	}
}

// TestAlgorithmTradeoffLargeMessages: for large messages, the
// bandwidth-optimal algorithms (ring, Rabenseifner) must beat plain
// recursive doubling, which sends the full buffer every round.
func TestAlgorithmTradeoffLargeMessages(t *testing.T) {
	const big = 1 << 20 // 1 MB
	rd := Allreduce(network("ps-iq-small", false, 3), 64, big, 1)
	rab := AllreduceRabenseifner(network("ps-iq-small", false, 3), 64, big, 1)
	if rab >= rd {
		t.Errorf("Rabenseifner (%f) not faster than recursive doubling (%f) at 1MB", rab, rd)
	}
}

// TestAlgorithmTradeoffSmallMessages: for tiny messages, latency
// dominates and the 2(p−1)-step ring must lose to the log-round
// algorithms.
func TestAlgorithmTradeoffSmallMessages(t *testing.T) {
	const small = 64
	rd := Allreduce(network("ps-iq-small", false, 4), 64, small, 1)
	ring := AllreduceRing(network("ps-iq-small", false, 4), 64, small, 1)
	if ring <= rd {
		t.Errorf("ring (%f) not slower than recursive doubling (%f) at 64B", ring, rd)
	}
}

func TestAllToAllCompletes(t *testing.T) {
	n := network("ps-iq-small", false, 5)
	tm := AllToAll(n, 32, 4096, 1)
	if tm <= 0 {
		t.Fatal("non-positive time")
	}
	// Each rank receives (p−1) messages on one ejection link: that
	// serialization is a hard floor.
	ser := 4096.0 / 4
	if tm < 31*ser {
		t.Errorf("alltoall %f beats the ejection serialization floor", tm)
	}
}

func TestCollectivesDegenerate(t *testing.T) {
	n := network("ps-iq-small", false, 6)
	if AllreduceRing(n, 1, 1024, 1) != 0 {
		t.Error("single-rank ring should be free")
	}
	if AllreduceRabenseifner(network("ps-iq-small", false, 6), 1, 1024, 1) != 0 {
		t.Error("single-rank rabenseifner should be free")
	}
	if AllToAll(network("ps-iq-small", false, 6), 1, 1024, 1) != 0 {
		t.Error("single-rank alltoall should be free")
	}
}

// TestTreeAllreduceScalesWithTrees: splitting the buffer over more
// edge-disjoint trees must not be slower — and is typically faster —
// than a single tree for bandwidth-bound messages.
func TestTreeAllreduceScalesWithTrees(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	trees, err := route.EdgeDisjointSpanningTrees(spec.Graph, 0, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) < 2 {
		t.Skip("not enough disjoint trees")
	}
	run := func(k int) float64 {
		p := flowsim.DefaultParams(1)
		net := flowsim.New(spec.MinEngine, spec.Config(), spec.Graph, nil, p)
		return TreeAllreduce(net, spec.Config().PerRouter, trees[:k], 1<<20, 1)
	}
	one := run(1)
	all := run(len(trees))
	if all > one {
		t.Errorf("%d trees (%f ns) slower than 1 tree (%f ns)", len(trees), all, one)
	}
	if one <= 0 || all <= 0 {
		t.Fatal("non-positive completion time")
	}
}

func TestTreeAllreduceEmpty(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	net := flowsim.New(spec.MinEngine, spec.Config(), spec.Graph, nil, flowsim.DefaultParams(1))
	if TreeAllreduce(net, spec.Config().PerRouter, nil, 1024, 1) != 0 {
		t.Error("empty tree set should be free")
	}
}

// AllreduceRabenseifner simulates Rabenseifner's algorithm: a recursive
// halving reduce-scatter (message sizes halve each round) followed by a
// recursive doubling allgather (sizes double back). Bandwidth-optimal
// with log2(p) rounds. Ranks round down to a power of two.
func AllreduceRabenseifner(n *flowsim.Network, ranks int, msgBytes float64, iters int) float64 {
	p := 1
	for p*2 <= ranks {
		p *= 2
	}
	if p < 2 {
		return 0
	}
	ready := make([]float64, p)
	arrive := make([]float64, p)
	exchange := func(step int, bytes float64) {
		for r := 0; r < p; r++ {
			partner := r ^ step
			arrive[partner] = n.Send(r, partner, bytes, ready[r])
		}
		for r := 0; r < p; r++ {
			if arrive[r] > ready[r] {
				ready[r] = arrive[r]
			}
		}
	}
	for it := 0; it < iters; it++ {
		// Reduce-scatter: halving distances up, sizes down.
		bytes := msgBytes / 2
		for step := 1; step < p; step *= 2 {
			exchange(step, bytes)
			bytes /= 2
		}
		// Allgather: reverse.
		bytes = msgBytes / float64(p)
		for step := p / 2; step >= 1; step /= 2 {
			exchange(step, bytes)
			bytes *= 2
		}
	}
	return maxOf(ready)
}

// AllToAll simulates a personalized all-to-all exchange among the first
// `ranks` endpoints: each rank sends a distinct msgBytes block to every
// other rank, pipelined with the standard shifted schedule (round k:
// rank r sends to rank (r+k) mod p). This is the traffic behind FFT
// transposes — the pattern family §9.4 motivates.
func AllToAll(n *flowsim.Network, ranks int, msgBytes float64, iters int) float64 {
	p := ranks
	if p < 2 {
		return 0
	}
	ready := make([]float64, p)
	arrive := make([]float64, p)
	for it := 0; it < iters; it++ {
		for k := 1; k < p; k++ {
			for r := 0; r < p; r++ {
				dst := (r + k) % p
				a := n.Send(r, dst, msgBytes, ready[r])
				if a > arrive[dst] {
					arrive[dst] = a
				}
			}
		}
		// A rank finishes the iteration when it has received everything.
		for r := 0; r < p; r++ {
			if arrive[r] > ready[r] {
				ready[r] = arrive[r]
			}
			arrive[r] = 0
		}
	}
	return maxOf(ready)
}
