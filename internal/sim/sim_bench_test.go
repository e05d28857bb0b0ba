package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkSimCyclePSIQSmall measures whole simulated runs of the small
// PolarStar at moderate load (throughput of the simulator itself).
func BenchmarkSimRunPSIQSmall(b *testing.B) {
	spec := must(NewSpec("ps-iq-small"))
	p := DefaultParams(1)
	p.Warmup, p.Measure, p.Drain = 500, 1000, 1500
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i)
		pattern, _ := spec.Pattern("uniform", p.Seed)
		eng := NewEngine(p, spec.Graph, spec.Config(), spec.MinRouting(), pattern)
		eng.Run(0.4)
	}
}

// BenchmarkSweep measures a whole latency-load sweep on the small
// PolarStar — the CI smoke for the two-level (load × shard) parallelism.
func BenchmarkSweep(b *testing.B) {
	spec := must(NewSpec("ps-iq-small"))
	p := DefaultParams(1)
	p.Warmup, p.Measure, p.Drain = 500, 1000, 1500
	loads := []float64{0.1, 0.3, 0.5}
	for i := 0; i < b.N; i++ {
		p.Seed = int64(i)
		if _, err := Sweep(spec, UGALMode, "uniform", loads, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCycleSoA measures one steady-state busy cycle of the engine in
// isolation (no warmup, no spec construction), in ns per router·cycle:
// the direct counterpart of the whole-run BenchmarkSweep for before/after
// engine comparisons. uniform is below the knee, where most forward
// attempts win; adversarial is past saturation, where five in six lose
// (4.3 M attempts for 0.7 M grants in fig_sweep's ps-iq-small curve) and
// the cost of a lost attempt is what is measured.
func BenchmarkCycleSoA(b *testing.B) {
	for _, c := range []struct {
		pattern string
		load    float64
	}{
		{"uniform", 0.4},
		{"adversarial", 0.7},
	} {
		b.Run(c.pattern, func(b *testing.B) {
			spec := must(NewSpec("ps-iq-small"))
			p := DefaultParams(1)
			p.Warmup, p.Measure, p.Drain = 1<<30, 1<<30, 0 // generation never stops
			pattern, err := spec.Pattern(c.pattern, p.Seed)
			if err != nil {
				b.Fatal(err)
			}
			eng := NewEngine(p, spec.Graph, spec.Config(), spec.UGALRouting(p.PacketFlits), pattern)
			eng.initGeneration(c.load / float64(p.PacketFlits))
			var t int64
			for ; t < 3000; t++ { // reach queue/ring steady state
				eng.stepCycle(t)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.stepCycle(t)
				t++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(spec.Graph.N()), "ns/router·cycle")
			var pkts int64
			for _, sh := range eng.shards {
				pkts += sh.deliveredAll
			}
			b.ReportMetric(float64(pkts)/float64(t), "pkts/cycle")
		})
	}
}

func BenchmarkSpecConstruction(b *testing.B) {
	for _, name := range []string{"ps-iq-small", "df-small", "ft-small"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				must(NewSpec(name))
			}
		})
	}
}

// BenchmarkRoutingContest measures one packet's path choice on ps-iq-43
// with half the queues empty and 3 % of the links dead: UGAL-L Path and
// MP-UGAL PathLane, in ns per packet over a fixed cycle of 4096 pairs.
func BenchmarkRoutingContest(b *testing.B) {
	spec := must(NewSpec("ps-iq-43"))
	n := spec.Graph.N()
	rng := rand.New(rand.NewSource(1))
	occs := make([]int, n*n)
	dead := make([]bool, n*n)
	for i := range occs {
		if rng.Intn(2) == 0 {
			occs[i] = 1 + rng.Intn(40)
		}
		dead[i] = rng.Intn(100) < 3
	}
	occ := func(a, c int) int { return occs[a*n+c] }
	live := func(a, c int) bool { return !dead[a*n+c] }
	pairs := make([][2]int, 4096)
	for i := range pairs {
		for pairs[i][0] == pairs[i][1] {
			pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
	}
	var stream splitmix
	pktRNG := rand.New(&stream)
	var buf []int
	b.Run("UGAL", func(b *testing.B) {
		u := spec.UGALRouting(4).(*UGAL)
		u.Live = live
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			stream.seed(1, int64(i))
			buf = u.Path(buf[:0], pr[0], pr[1], occ, pktRNG)
		}
	})
	b.Run("MP-UGAL", func(b *testing.B) {
		r, err := spec.Routing(MPUGALMode, Params{Lanes: 3, PacketFlits: 4})
		if err != nil {
			b.Fatal(err)
		}
		m := r.Clone().(*MultiPathRouting)
		m.setLive(live, newLaneHealth(m.MP), nil, nil)
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			stream.seed(1, int64(i))
			buf, _ = m.PathLane(buf[:0], pr[0], pr[1], occ, pktRNG)
		}
	})
}
