package motifs

import "polarstar/internal/flowsim"

// Extension beyond the paper's two motifs: the ring Allreduce. §10
// motivates Allreduce as the key collective; comparing algorithms on the
// same topology shows how message-count/size trade-offs interact with the
// network (large messages favor the bandwidth-optimal ring; small
// messages favor the log-round recursive doubling). The Rabenseifner and
// AllToAll variants that only the trade-off tests run live in
// collectives_test.go.

// AllreduceRing simulates the bandwidth-optimal ring allreduce:
// reduce-scatter then allgather, each 2(p−1) steps of msgBytes/p chunks.
// Returns the completion time in ns.
func AllreduceRing(n *flowsim.Network, ranks int, msgBytes float64, iters int) float64 {
	p := ranks
	if p > n.Config().Endpoints() {
		p = n.Config().Endpoints()
	}
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

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
