package sim

import "testing"

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
