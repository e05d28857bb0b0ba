package faults

import (
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/sim"
)

// hostsConnected is the oracle's connectivity check: one scalar BFS from
// the first host (vertex 0 when every router is a host).
func hostsConnected(h *graph.Graph, hosts Hosts) bool {
	if h.N() == 0 {
		return true
	}
	if hosts == nil {
		return h.IsConnected(nil)
	}
	dist := h.BFSDistances(hosts[0], nil, nil)
	for _, v := range hosts {
		if dist[v] == graph.Unreachable {
			return false
		}
	}
	return true
}

// bisectDisconnectAt is the oracle of sweeper.disconnectAt: bisection
// over the sweeper's current removal order, every probe a freshly built
// subgraph and a BFS.
func bisectDisconnectAt(sw *sweeper, hosts Hosts) int {
	connected := func(k int) bool {
		h := sw.g.FilterEdges(func(c, _, _ int) bool { return sw.rank[c] >= int32(k) })
		return hostsConnected(h, hosts)
	}
	lo, hi := 1, len(sw.order)
	if connected(hi) {
		lo = hi + 1
	}
	for lo < hi {
		if mid := (lo + hi) / 2; connected(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkDisconnectAt runs seeds trials on g and compares each trial's
// union-find disconnection point with the bisection oracle; want, when
// positive, is the value both must give.
func checkDisconnectAt(t *testing.T, name string, g *graph.Graph, hosts Hosts, seeds, want int) {
	t.Helper()
	if err := validate(g, hosts, nil); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sw := newSweeper(g)
	for seed := int64(0); seed < int64(seeds); seed++ {
		tr := sw.runTrial(hosts, seed, nil, nil, 0)
		got, oracle := sw.disconnectAt(hosts), bisectDisconnectAt(sw, hosts)
		if got != oracle || (want > 0 && got != want) {
			t.Errorf("%s seed %d: union-find %d, bisection %d, want %d (0: any)", name, seed, got, oracle, want)
		}
		if ratio := float64(oracle) / float64(g.M()); tr.DisconnectionRatio != ratio {
			t.Errorf("%s seed %d: trial ratio %v, bisection %v", name, seed, tr.DisconnectionRatio, ratio)
		}
	}
}

// TestDisconnectAtMatchesBisection: the union-find pass finds the
// disconnection point the bisection over rebuilt subgraphs finds, on
// every -small spec (all routers as hosts, and the spec's own host subset
// where it has one) and on the boundary cases of the contract.
func TestDisconnectAtMatchesBisection(t *testing.T) {
	for _, name := range []string{
		"ps-iq-small", "ps-pal-small", "bf-small", "hx-small", "df-small",
		"sf-small", "mf-small", "ft-small", "pf-small", "slimfly-small",
	} {
		spec := must(sim.NewSpec(name))
		checkDisconnectAt(t, name, spec.Graph, nil, 20, 0)
		if name == "ft-small" || name == "mf-small" {
			if len(spec.Hosts) == 0 || len(spec.Hosts) == spec.Graph.N() {
				t.Fatalf("%s: expected a proper host subset, got %d of %d", name, len(spec.Hosts), spec.Graph.N())
			}
			checkDisconnectAt(t, name+"/hosts", spec.Graph, Hosts(spec.Hosts), 20, 0)
		}
	}

	build := func(n int, edges ...[2]int) *graph.Graph {
		b := graph.NewBuilder("edge-case", n)
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		return b.Build()
	}
	triangles := build(6, [2]int{0, 1}, [2]int{1, 2}, [2]int{0, 2}, [2]int{3, 4}, [2]int{4, 5}, [2]int{3, 5})
	checkDisconnectAt(t, "single host", triangles, Hosts{4}, 5, triangles.M()+1)
	checkDisconnectAt(t, "intact graph disconnected", triangles, nil, 5, 1)
	checkDisconnectAt(t, "hosts across components", triangles, Hosts{0, 5}, 5, 1)
	checkDisconnectAt(t, "hosts in one component", triangles, Hosts{3, 4, 5}, 20, 0)
	checkDisconnectAt(t, "one edge", build(2, [2]int{0, 1}), nil, 3, 1)
	checkDisconnectAt(t, "no edge", build(2), nil, 1, 1)
	checkDisconnectAt(t, "one vertex", build(1), nil, 1, 1)
}

// BenchmarkMedianTrial is the Fig 14 unit of work: 20 ranked trials and
// one fully sampled median trial on the paper-scale PolarStar.
func BenchmarkMedianTrial(b *testing.B) {
	spec := must(sim.NewSpec("ps-iq"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MedianTrial(spec.Graph, Hosts(spec.Hosts), 20, int64(i), DefaultFracs); err != nil {
			b.Fatal(err)
		}
	}
}
