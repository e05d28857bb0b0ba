// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index E1..E19).
//
// By default every benchmark runs a scaled-down configuration so that
// `go test -bench=.` completes on a laptop; set POLARSTAR_FULL=1 to run
// the Table 3 / full-radix-sweep configurations the paper uses. Key
// experiment outcomes are attached as custom benchmark metrics.
package polarstar_test

import (
	"fmt"
	"os"
	"testing"

	"polarstar"
	"polarstar/internal/faults"
	"polarstar/internal/flowsim"
	"polarstar/internal/moore"
	"polarstar/internal/motifs"
	"polarstar/internal/partition"
	"polarstar/internal/sim"
	"polarstar/internal/topo"
)

func fullScale() bool { return os.Getenv("POLARSTAR_FULL") == "1" }

// simSpecs returns the topology set of the synthetic-traffic figures.
func simSpecs() []string {
	if fullScale() {
		return []string{"ps-iq", "ps-pal", "bf", "hx", "df", "sf", "mf", "ft"}
	}
	return []string{"ps-iq-small", "ps-pal-small", "bf-small", "hx-small", "df-small", "sf-small", "mf-small", "ft-small"}
}

func simParams(seed int64) sim.Params {
	p := sim.DefaultParams(seed)
	if !fullScale() {
		p.Warmup, p.Measure, p.Drain = 1000, 2000, 4000
	}
	return p
}

func simLoads() []float64 {
	if fullScale() {
		return sim.DefaultLoads
	}
	return []float64{0.1, 0.3, 0.5, 0.7}
}

// runFig9 runs one (routing, pattern) panel over all topologies and
// reports each topology's saturation load as a metric.
func runFig9(b *testing.B, mode sim.RoutingMode, pattern string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		for _, name := range simSpecs() {
			spec, err := sim.NewSpec(name)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Sweep(spec, mode, pattern, simLoads(), simParams(1))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(res.SaturationLoad(), name+"_satload")
			}
		}
	}
}

// --- E1: Fig 1, diameter-3 scalability vs the Moore bound. ---

func BenchmarkFig01ScalabilityDiam3(b *testing.B) {
	lo, hi := 8, 64
	if fullScale() {
		hi = 128
	}
	var rows []moore.Fig1Row
	for i := 0; i < b.N; i++ {
		rows = moore.Fig1(lo, hi)
	}
	// Report the radix-64 Moore efficiencies (the data labels of Fig 1).
	last := rows[len(rows)-1]
	eff := func(order int64) float64 { return float64(order) / float64(last.MooreBound) }
	b.ReportMetric(eff(last.PolarStar.Order), "polarstar_eff")
	b.ReportMetric(eff(last.Bundlefly.Order), "bundlefly_eff")
	b.ReportMetric(eff(last.Dragonfly.Order), "dragonfly_eff")
	b.ReportMetric(eff(last.HyperX3D.Order), "hyperx_eff")
}

// --- E2: Fig 4, diameter-2 factor-graph families. ---

func BenchmarkFig04Diameter2Families(b *testing.B) {
	var rows []moore.Fig4Row
	for i := 0; i < b.N; i++ {
		rows = moore.Fig4(8, 64)
	}
	// ER approaches the diameter-2 Moore bound asymptotically.
	for _, r := range rows {
		if r.Radix == 50 { // q = 49
			b.ReportMetric(float64(r.ER.Order)/float64(r.MooreBound), "er_eff_radix50")
		}
	}
}

// --- E3: Fig 7, the PolarStar design space. ---

func BenchmarkFig07DesignSpace(b *testing.B) {
	lo, hi := 8, 64
	if fullScale() {
		hi = 128
	}
	total := 0
	for i := 0; i < b.N; i++ {
		total = 0
		for r := lo; r <= hi; r++ {
			total += len(moore.PolarStarConfigs(r))
		}
	}
	b.ReportMetric(float64(total), "feasible_configs")
}

// --- E6: Table 3, the simulated configurations. ---

func BenchmarkTable3Construction(b *testing.B) {
	names := sim.Table3Names
	routers := map[string]int{}
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			spec, err := sim.NewSpec(name)
			if err != nil {
				b.Fatal(err)
			}
			routers[name] = spec.Graph.N()
		}
	}
	for _, name := range names {
		b.ReportMetric(float64(routers[name]), name+"_routers")
	}
}

// --- E7..E11: Fig 9, synthetic traffic latency-load panels. ---

func BenchmarkFig09UniformMIN(b *testing.B)  { runFig9(b, sim.MIN, "uniform") }
func BenchmarkFig09UniformUGAL(b *testing.B) { runFig9(b, sim.UGALMode, "uniform") }
func BenchmarkFig09Permutation(b *testing.B) { runFig9(b, sim.UGALMode, "permutation") }
func BenchmarkFig09BitReverse(b *testing.B)  { runFig9(b, sim.UGALMode, "bitreverse") }
func BenchmarkFig09BitShuffle(b *testing.B)  { runFig9(b, sim.UGALMode, "bitshuffle") }

// --- E12: Fig 10, adversarial traffic (MIN and UGAL panels). ---

func BenchmarkFig10AdversarialMIN(b *testing.B)  { runFig9(b, sim.MIN, "adversarial") }
func BenchmarkFig10AdversarialUGAL(b *testing.B) { runFig9(b, sim.UGALMode, "adversarial") }

// --- E13/E14: Fig 11, real-world motifs. ---

func motifSpecs() []string {
	if fullScale() {
		return []string{"ps-iq", "df", "hx", "ft"}
	}
	return []string{"ps-iq-small", "df-small", "hx-small", "ft-small"}
}

func BenchmarkFig11Allreduce(b *testing.B) {
	ranks, iters := 256, 10
	if fullScale() {
		ranks = 4096
	}
	for i := 0; i < b.N; i++ {
		for _, name := range motifSpecs() {
			spec, err := sim.NewSpec(name)
			if err != nil {
				b.Fatal(err)
			}
			r := ranks
			if r > spec.Endpoints() {
				r = spec.Endpoints()
			}
			for _, adaptive := range []bool{false, true} {
				p := flowsim.DefaultParams(1)
				p.Adaptive = adaptive
				net := flowsim.New(spec.MinEngine, spec.Config(), spec.Graph, spec.UGALMids, p)
				t := motifs.Allreduce(net, r, 64*1024, iters)
				if i == 0 {
					suffix := "_min_us"
					if adaptive {
						suffix = "_ugal_us"
					}
					b.ReportMetric(t/1000, name+suffix)
				}
			}
		}
	}
}

func BenchmarkFig11Sweep3D(b *testing.B) {
	side, iters := 16, 10
	if fullScale() {
		side = 64
	}
	for i := 0; i < b.N; i++ {
		for _, name := range motifSpecs() {
			spec, err := sim.NewSpec(name)
			if err != nil {
				b.Fatal(err)
			}
			s := side
			for s*s > spec.Endpoints() {
				s /= 2
			}
			for _, adaptive := range []bool{false, true} {
				p := flowsim.DefaultParams(1)
				p.Adaptive = adaptive
				net := flowsim.New(spec.MinEngine, spec.Config(), spec.Graph, spec.UGALMids, p)
				t := motifs.Sweep3D(net, s, s, 4096, 100, iters)
				if i == 0 {
					suffix := "_min_us"
					if adaptive {
						suffix = "_ugal_us"
					}
					b.ReportMetric(t/1000, name+suffix)
				}
			}
		}
	}
}

// --- E15: Fig 12, bisection across topologies. ---

func BenchmarkFig12Bisection(b *testing.B) {
	specs := []string{"ps-iq", "ps-pal", "bf", "df", "hx", "mf"}
	if !fullScale() {
		specs = []string{"ps-iq-small", "ps-pal-small", "bf-small", "df-small", "hx-small", "mf-small"}
	}
	for i := 0; i < b.N; i++ {
		for _, name := range specs {
			spec, err := sim.NewSpec(name)
			if err != nil {
				b.Fatal(err)
			}
			f := partition.CutFraction(spec.Graph, 1, partition.Options{})
			if i == 0 {
				b.ReportMetric(f, name+"_cutfrac")
			}
		}
	}
}

// --- E16: Fig 13, PolarStar bisection IQ vs Paley across radixes. ---

func BenchmarkFig13BisectionPolarStar(b *testing.B) {
	lo, hi, maxN := 8, 16, 2000
	if fullScale() {
		hi, maxN = 24, 40000
	}
	sums := map[string][]float64{}
	for i := 0; i < b.N; i++ {
		for r := lo; r <= hi; r++ {
			for _, kind := range []topo.SupernodeKind{topo.KindIQ, topo.KindPaley} {
				for _, c := range moore.PolarStarConfigs(r) {
					if c.Kind != kind || int(c.Order) > maxN {
						continue
					}
					ps, err := topo.NewPolarStar(c.Q, c.DPrime, c.Kind)
					if err != nil {
						continue
					}
					f := partition.CutFraction(ps.G, 1, partition.Options{})
					if i == 0 {
						sums[kind.String()] = append(sums[kind.String()], f)
					}
					break
				}
			}
		}
	}
	for kind, fs := range sums {
		avg := 0.0
		for _, f := range fs {
			avg += f
		}
		b.ReportMetric(avg/float64(len(fs)), fmt.Sprintf("%s_avg_cutfrac", kind))
	}
}

// --- E17: Fig 14, fault tolerance. ---

func BenchmarkFig14FaultTolerance(b *testing.B) {
	trials := 10
	specs := []string{"ps-iq-small", "bf-small", "df-small", "hx-small"}
	if fullScale() {
		trials = 100
		specs = []string{"ps-iq", "bf", "df", "hx"}
	}
	for i := 0; i < b.N; i++ {
		for _, name := range specs {
			spec, err := sim.NewSpec(name)
			if err != nil {
				b.Fatal(err)
			}
			tr, err := faults.MedianTrial(spec.Graph, faults.Hosts(spec.Hosts), trials, 1, faults.DefaultFracs)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(tr.DisconnectionRatio, name+"_disconnect")
			}
		}
	}
}

// --- E19: §1.3 headline geometric-mean scale ratios. ---

func BenchmarkHeadlineScaleRatios(b *testing.B) {
	var h moore.HeadlineRatios
	for i := 0; i < b.N; i++ {
		h = moore.Headline(8, 128)
	}
	b.ReportMetric(h.VsBundlefly, "vs_bundlefly")
	b.ReportMetric(h.VsDragonfly, "vs_dragonfly")
	b.ReportMetric(h.VsHyperX, "vs_hyperx")
}

// --- Ablations (DESIGN.md design choices). ---

// BenchmarkAblationAnalyticVsTableRouting compares the §9.2 analytic
// router against table-based routing on the Table 3 PolarStar: the
// analytic router trades a small per-path cost for O(q²+d'²) state.
func BenchmarkAblationAnalyticVsTableRouting(b *testing.B) {
	ps := topo.MustNewPolarStar(11, 3, topo.KindIQ)
	spec, _ := sim.NewSpec("ps-iq")
	rng := newRng(1)
	b.Run("analytic", func(b *testing.B) {
		eng := spec.MinEngine
		for i := 0; i < b.N; i++ {
			src, dst := rng.Intn(ps.G.N()), rng.Intn(ps.G.N())
			_ = polarstar.Route(eng, src, dst, rng)
		}
	})
	b.Run("table", func(b *testing.B) {
		eng := newTableEngine(ps)
		for i := 0; i < b.N; i++ {
			src, dst := rng.Intn(ps.G.N()), rng.Intn(ps.G.N())
			_ = polarstar.Route(eng, src, dst, rng)
		}
	})
}

// BenchmarkAblationSupernodeKinds compares construction cost and scale
// across supernode families at equal radix.
func BenchmarkAblationSupernodeKinds(b *testing.B) {
	cases := []struct {
		kind topo.SupernodeKind
		q, d int
	}{
		{topo.KindIQ, 11, 3},
		{topo.KindPaley, 8, 6},
		{topo.KindBDF, 11, 3},
		{topo.KindComplete, 11, 3},
	}
	for _, c := range cases {
		b.Run(c.kind.String(), func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				ps, err := topo.NewPolarStar(c.q, c.d, c.kind)
				if err != nil {
					b.Fatal(err)
				}
				n = ps.G.N()
			}
			b.ReportMetric(float64(n), "routers")
		})
	}
}

// BenchmarkAblationStarProduct measures the star-product construction
// itself at growing scale.
func BenchmarkAblationStarProduct(b *testing.B) {
	for _, q := range []int{5, 11, 19} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = topo.MustNewPolarStar(q, 3, topo.KindIQ)
			}
		})
	}
}

// BenchmarkAblationUGALVariants compares UGAL-L (local first-hop queue,
// the paper's configuration) against the idealized global-information
// UGAL-G on adversarial traffic.
func BenchmarkAblationUGALVariants(b *testing.B) {
	spec := must(sim.NewSpec("ps-iq-small"))
	loads := []float64{0.1, 0.3}
	params := simParams(1)
	for _, mode := range []sim.RoutingMode{sim.UGALMode, sim.UGALGMode} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sim.Sweep(spec, mode, "adversarial", loads, params)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(res.SaturationLoad(), "satload")
					b.ReportMetric(res.Points[0].AvgLatency, "latency_at_0.1")
				}
			}
		})
	}
}

// BenchmarkAblationBisectionSeeds measures how the bisection estimate
// improves with the number of multilevel random starts.
func BenchmarkAblationBisectionSeeds(b *testing.B) {
	spec := must(sim.NewSpec("bf-small"))
	for _, seeds := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("seeds=%d", seeds), func(b *testing.B) {
			var f float64
			for i := 0; i < b.N; i++ {
				f = partition.CutFraction(spec.Graph, 1, partition.Options{Seeds: seeds})
			}
			b.ReportMetric(f, "cutfrac")
		})
	}
}
