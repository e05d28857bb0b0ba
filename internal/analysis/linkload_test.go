package analysis

import (
	"math"
	"math/rand"
	"testing"

	"polarstar/internal/route"
	"polarstar/internal/sim"
)

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
