// Package analysis holds, in tests only, a fast simulation-free estimate
// of network behaviour: per-link load distributions under a traffic
// pattern and the implied saturation-throughput bound. The bound
// cross-checks the cycle-level simulator (a sweep's measured saturation
// load can never exceed the bottleneck-link bound) and explains the
// Fig 9 orderings structurally. No binary reads it, so it lives beside
// the tests that compare against it.
package analysis

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/route"
	"polarstar/internal/sim"
	"polarstar/internal/traffic"
)

// LinkLoads is the per-directed-link load distribution induced by a
// traffic pattern under a routing engine, in units of
// flits-per-cycle-per-endpoint offered load 1.0.
type LinkLoads struct {
	// Max is the bottleneck normalized load: a link carrying Max units
	// saturates at offered load 1/Max.
	Max float64
	// Mean is the average over used links.
	Mean float64
	// P99 is the 99th percentile load.
	P99 float64
	// Gini measures load imbalance in [0,1): 0 = perfectly even.
	Gini float64
	// UsedLinks counts links carrying any traffic.
	UsedLinks int
}

// loadShards is the fixed endpoint-striping factor of ComputeLinkLoads.
// It is a constant — not GOMAXPROCS — so results are identical on any
// machine: endpoint ep always belongs to shard ep mod loadShards, with a
// shard-specific RNG stream derived from the seed.
const loadShards = 16

// shardSeed derives the RNG seed of one shard from the sweep seed.
func shardSeed(seed int64, s int) int64 {
	return seed ^ (int64(s+1) * 0x5DEECE66D)
}

// ComputeLinkLoads routes every endpoint `rounds` times under the pattern
// and accumulates per-directed-channel traffic in dense arrays indexed by
// the graph's channel ids (graph.ChannelID). Loads are normalized so that
// a value of 1.0 on a link means the link is fully busy at offered load
// 1.0 (every endpoint injecting one flit per cycle).
//
// Endpoints are striped over loadShards independent shards, routed in
// parallel with per-shard RNGs and per-shard accumulators, then merged in
// fixed shard order — so the result is bit-identical for a given seed
// regardless of GOMAXPROCS or scheduling. Each shard routes through a
// reusable path buffer via Engine.AppendPath, so steady-state sampling
// performs no per-packet heap allocation.
func ComputeLinkLoads(g *graph.Graph, engine route.Engine, cfg traffic.Config, pattern traffic.Pattern, rounds int, seed int64) LinkLoads {
	nChans := g.NumChannels()
	endpoints := cfg.Endpoints()
	if nChans == 0 || endpoints == 0 || rounds <= 0 {
		return LinkLoads{}
	}
	shardLoads := make([][]float64, loadShards)
	shardActive := make([]int, loadShards)
	var wg sync.WaitGroup
	for s := 0; s < loadShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(shardSeed(seed, s)))
			loads := make([]float64, nChans)
			var path []int
			active := 0
			for round := 0; round < rounds; round++ {
				for ep := s; ep < endpoints; ep += loadShards {
					dst := pattern.Dest(ep, rng)
					if dst < 0 {
						continue
					}
					if round == 0 {
						active++
					}
					srcR, dstR := cfg.RouterOf(ep), cfg.RouterOf(dst)
					if srcR == dstR {
						continue
					}
					path = engine.AppendPath(path[:0], srcR, dstR, rng)
					for i := 0; i+1 < len(path); i++ {
						loads[g.ChannelID(path[i], path[i+1])]++
					}
				}
			}
			shardLoads[s] = loads
			shardActive[s] = active
		}(s)
	}
	wg.Wait()

	// Merge in fixed shard order (float summation order is part of the
	// determinism contract), then reduce in channel-id order.
	total := shardLoads[0]
	active := shardActive[0]
	for s := 1; s < loadShards; s++ {
		for c, v := range shardLoads[s] {
			total[c] += v
		}
		active += shardActive[s]
	}
	var out LinkLoads
	if active == 0 {
		return out
	}
	// Normalize: each active endpoint contributed `rounds` packets; at
	// offered load 1.0 it injects 1 flit/cycle, so a link's normalized
	// load is (its packet count) / rounds.
	vals := make([]float64, 0, nChans)
	sum := 0.0
	for _, v := range total {
		if v == 0 {
			continue
		}
		nv := v / float64(rounds)
		vals = append(vals, nv)
		sum += nv
		if nv > out.Max {
			out.Max = nv
		}
	}
	out.UsedLinks = len(vals)
	if len(vals) == 0 {
		return out
	}
	sort.Float64s(vals)
	out.Mean = sum / float64(len(vals))
	out.P99 = vals[int(float64(len(vals)-1)*0.99)]
	// Gini coefficient of the sorted loads (0 when no traffic flowed: the
	// all-zero distribution is perfectly even, and dividing by cum == 0
	// would yield NaN).
	var cum, giniNum float64
	for i, v := range vals {
		cum += v
		giniNum += float64(i+1) * v
	}
	if cum > 0 {
		n := float64(len(vals))
		out.Gini = (2*giniNum - (n+1)*cum) / (n * cum)
	}
	return out
}

func loadsFor(t *testing.T, specName, patternName string, rounds int) LinkLoads {
	t.Helper()
	spec := must(sim.NewSpec(specName))
	pattern, err := spec.Pattern(patternName, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ComputeLinkLoads(spec.Graph, spec.MinEngine, spec.Config(), pattern, rounds, 1)
}

func TestUniformLoadsReasonable(t *testing.T) {
	l := loadsFor(t, "ps-iq-small", "uniform", 30)
	if l.UsedLinks == 0 || l.Max <= 0 {
		t.Fatalf("degenerate loads: %+v", l)
	}
	if l.Mean > l.Max || l.P99 > l.Max {
		t.Errorf("inconsistent distribution: %+v", l)
	}
	if l.Gini < 0 || l.Gini > 1 {
		t.Errorf("gini out of range: %f", l.Gini)
	}
	// Uniform traffic on a symmetric-ish diameter-3 topology: the
	// saturation bound must be a sane fraction of injection bandwidth.
	b := l.SaturationBound()
	if b < 0.2 || b > 2.0 {
		t.Errorf("uniform saturation bound %.3f implausible", b)
	}
}

// TestAdversarialBoundFarBelowUniform: the §9.6 pattern concentrates all
// inter-group traffic on few links, so its analytic saturation bound must
// be far below the uniform one on Dragonfly.
func TestAdversarialBoundFarBelowUniform(t *testing.T) {
	uni := loadsFor(t, "df-small", "uniform", 30)
	adv := loadsFor(t, "df-small", "adversarial", 5)
	if adv.SaturationBound() >= uni.SaturationBound()/2 {
		t.Errorf("adversarial bound %.3f not far below uniform %.3f",
			adv.SaturationBound(), uni.SaturationBound())
	}
}

// TestAnalyticBoundDominatesSimulation: the cycle simulator can never
// sustain more than the bottleneck-link bound.
func TestAnalyticBoundDominatesSimulation(t *testing.T) {
	spec := must(sim.NewSpec("df-small"))
	pattern, _ := spec.Pattern("adversarial", 1)
	bound := ComputeLinkLoads(spec.Graph, spec.MinEngine, spec.Config(), pattern, 5, 1).SaturationBound()

	p := sim.DefaultParams(1)
	p.Warmup, p.Measure, p.Drain = 500, 1000, 2000
	res, err := sim.Sweep(spec, sim.MIN, "adversarial", []float64{0.05, 0.1, 0.2, 0.4}, p)
	if err != nil {
		t.Fatal(err)
	}
	if sat := res.SaturationLoad(); sat > bound*1.3 {
		t.Errorf("simulated saturation %.3f exceeds analytic bound %.3f", sat, bound)
	}
}

// TestMinpathNearUniquenessOnPolarStar: star products have little
// minimal-path diversity (the first inter-supernode hop is forced by the
// bijection), which is WHY the paper routes PolarStar with a single
// analytic minpath (§9.3). All-minpath table routing must therefore give
// essentially the same adversarial load profile as the analytic router.
func TestMinpathNearUniquenessOnPolarStar(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	pattern, err := spec.Pattern("adversarial", 1)
	if err != nil {
		t.Fatal(err)
	}
	single := ComputeLinkLoads(spec.Graph, spec.MinEngine, spec.Config(), pattern, 5, 1)
	multi := ComputeLinkLoads(spec.Graph, route.NewTable(spec.Graph, route.AllMinPaths), spec.Config(), pattern, 5, 1)
	ratio := multi.SaturationBound() / single.SaturationBound()
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("all-minpath bound %.4f differs from analytic %.4f by more than expected",
			multi.SaturationBound(), single.SaturationBound())
	}
}

// TestValiantSpreadsAdversarialLoad: the Fig 10 mechanism — Valiant
// misrouting spreads the concentrated adversarial traffic over the whole
// network (and in PolarStar over the inter-supernode bundles), raising
// the analytic saturation bound and flattening the load distribution.
func TestValiantSpreadsAdversarialLoad(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	pattern, err := spec.Pattern("adversarial", 1)
	if err != nil {
		t.Fatal(err)
	}
	min := ComputeLinkLoads(spec.Graph, spec.MinEngine, spec.Config(), pattern, 5, 1)
	val := ComputeLinkLoads(spec.Graph, valiantEngine{v: route.NewValiant(spec.MinEngine, spec.Graph.N(), 1)},
		spec.Config(), pattern, 5, 1)
	if val.SaturationBound() <= min.SaturationBound() {
		t.Errorf("valiant bound %.4f not above minimal bound %.4f",
			val.SaturationBound(), min.SaturationBound())
	}
	// Valiant also puts many more links to work. (Gini values are not
	// comparable across the two cases: they are computed over different
	// support sets.)
	if val.UsedLinks <= min.UsedLinks {
		t.Errorf("valiant used %d links, minimal %d", val.UsedLinks, min.UsedLinks)
	}
}

// valiantEngine adapts pure Valiant misrouting (always via one random
// intermediate) to the route.Engine interface.
type valiantEngine struct{ v *route.Valiant }

func (e valiantEngine) AppendPath(buf []int, src, dst int, rng *rand.Rand) []int {
	return e.v.AppendVia(buf, src, rng.Intn(e.v.N), dst, rng)
}

func (e valiantEngine) Dist(src, dst int) int { return e.v.Min.Dist(src, dst) }

func TestEmptyPattern(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	idle := idlePattern{}
	l := ComputeLinkLoads(spec.Graph, spec.MinEngine, spec.Config(), idle, 3, 1)
	if l.UsedLinks != 0 || l.Max != 0 {
		t.Errorf("idle pattern produced load: %+v", l)
	}
	if b := l.SaturationBound(); b <= 1000 {
		t.Errorf("idle saturation bound should be infinite, got %f", b)
	}
}

type idlePattern struct{}

func (idlePattern) Name() string { return "idle" }

func (idlePattern) Dest(int, *rand.Rand) int { return -1 }

// must returns v and panics on err; test set-up here only builds valid
// instances.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// SaturationBound returns the offered load at which the bottleneck link
// saturates: the upper bound on sustainable throughput.
func (l LinkLoads) SaturationBound() float64 {
	if l.Max <= 0 {
		return math.Inf(1)
	}
	return 1 / l.Max
}
