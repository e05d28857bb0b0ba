package faults

import (
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/route"
	"polarstar/internal/sim"
)

// TestEDSTStructuralOracle ties the EDST lanes, Fig 14 and the
// Nash–Williams ceiling together on the PolarStar, Bundlefly and Slim Fly
// -small specs. Each extractor's tree count k obeys k ≤ ⌊m/(n−1)⌋ and
// k ≤ λ ≤ δ, where λ is the exact edge connectivity (Menger through
// EdgeDisjointPaths) and δ the minimum degree; and no trial of psfig's
// Fig 14 protocol (ten seeds from 1) disconnects the hosts before λ links
// have failed. The logged k and depths are the baseline a star-product
// extractor has to beat.
func TestEDSTStructuralOracle(t *testing.T) {
	extractors := []struct {
		name    string
		extract func(*graph.Graph, int, int, int64) ([]*route.SpanningTree, error)
	}{{"kruskal", route.EdgeDisjointSpanningTrees}, {"bfs", route.EdgeDisjointBFSTrees}}
	for _, name := range []string{"ps-iq-small", "ps-pal-small", "bf-small", "slimfly-small"} {
		spec := must(sim.NewSpec(name))
		g := spec.Graph
		ceiling := g.M() / (g.N() - 1)
		lambda := g.MaxDegree() // Menger: the fewest edge-disjoint paths from vertex 0
		for v := 1; v < g.N(); v++ {
			lambda = min(lambda, len(route.EdgeDisjointPaths(g, 0, v, 0)))
		}
		if lambda > g.MinDegree() {
			t.Errorf("%s: edge connectivity %d above minimum degree %d", name, lambda, g.MinDegree())
		}
		for _, ex := range extractors {
			trees := must(ex.extract(g, 0, 64, 1))
			depth := int32(0)
			for _, tr := range trees {
				for _, d := range tr.Depths() {
					depth = max(depth, d)
				}
			}
			k := len(trees)
			t.Logf("%s %s: n %d m %d ceiling %d k %d λ %d max depth %d", name, ex.name, g.N(), g.M(), ceiling, k, lambda, depth)
			if k > ceiling || k > lambda {
				t.Errorf("%s %s: %d trees exceed the ceiling %d or λ %d", name, ex.name, k, ceiling, lambda)
			}
		}
		sw := newSweeper(g)
		hosts := Hosts(spec.Hosts)
		for i := int64(0); i < 10; i++ {
			sw.runTrial(hosts, 1+i*6151, nil, nil, 0)
			if at := sw.disconnectAt(hosts); at < lambda {
				t.Errorf("%s seed %d: hosts disconnect after %d failures, below λ = %d", name, 1+i*6151, at, lambda)
			}
		}
	}
}
