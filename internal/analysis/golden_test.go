package analysis

import (
	"math"
	"math/rand"
	"testing"

	"polarstar/internal/sim"
	"polarstar/internal/traffic"
)

// TestGoldenUniformLoadsPSIQSmall pins the exact link-load distribution of
// the sharded implementation. The 16-shard striping, the per-shard RNG
// seeds and the shard-order merge are all part of the result's identity:
// this test must pass on any machine at any GOMAXPROCS. (The pre-shard
// implementation could not be pinned at all — it summed in Go map
// iteration order, so even its Mean varied from run to run.)
func TestGoldenUniformLoadsPSIQSmall(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	pattern, err := spec.Pattern("uniform", 1)
	if err != nil {
		t.Fatal(err)
	}
	l := ComputeLinkLoads(spec.Graph, spec.MinEngine, spec.Config(), pattern, 30, 1)
	if l.Max != 1.6333333333333333 {
		t.Errorf("max = %.17g, want 1.6333333333333333", l.Max)
	}
	if l.Mean != 0.80054838709677578 {
		t.Errorf("mean = %.17g, want 0.80054838709677578", l.Mean)
	}
	if l.P99 != 1.3333333333333333 {
		t.Errorf("p99 = %.17g, want 1.3333333333333333", l.P99)
	}
	if l.Gini != 0.16220426857935114 {
		t.Errorf("gini = %.17g, want 0.16220426857935114", l.Gini)
	}
	if l.UsedLinks != 3100 {
		t.Errorf("used links = %d, want 3100", l.UsedLinks)
	}
}

// TestLinkLoadsRunToRunDeterminism: repeated computations must agree in
// every bit — the parallel shards may be scheduled arbitrarily, but the
// merge order is fixed.
func TestLinkLoadsRunToRunDeterminism(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	pattern, err := spec.Pattern("uniform", 3)
	if err != nil {
		t.Fatal(err)
	}
	a := ComputeLinkLoads(spec.Graph, spec.MinEngine, spec.Config(), pattern, 10, 3)
	for i := 0; i < 3; i++ {
		if b := ComputeLinkLoads(spec.Graph, spec.MinEngine, spec.Config(), pattern, 10, 3); a != b {
			t.Fatalf("run %d differs:\n%+v\n%+v", i, a, b)
		}
	}
}

// selfPattern routes every endpoint to itself: traffic exists but no
// packet crosses a link, exercising the zero-traffic statistics path.
type selfPattern struct{}

func (selfPattern) Name() string                   { return "self" }
func (selfPattern) Dest(src int, _ *rand.Rand) int { return src }

// TestGiniZeroTrafficNoNaN: a distribution with no carried load must
// report Gini 0, not NaN from the cum == 0 division.
func TestGiniZeroTrafficNoNaN(t *testing.T) {
	spec := must(sim.NewSpec("ps-iq-small"))
	for _, p := range []traffic.Pattern{selfPattern{}, idlePattern{}} {
		l := ComputeLinkLoads(spec.Graph, spec.MinEngine, spec.Config(), p, 3, 1)
		if math.IsNaN(l.Gini) || l.Gini != 0 {
			t.Errorf("%s: gini = %v, want 0", p.Name(), l.Gini)
		}
		if math.IsNaN(l.Mean) || math.IsNaN(l.Max) || math.IsNaN(l.P99) {
			t.Errorf("%s: NaN in %+v", p.Name(), l)
		}
		if l.UsedLinks != 0 {
			t.Errorf("%s: used links = %d, want 0", p.Name(), l.UsedLinks)
		}
	}
}
