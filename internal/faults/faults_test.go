package faults

import (
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

// must returns v and panics on err; the tests here always pass valid
// arguments.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// trial runs one seeded link-failure scenario on a fresh sweeper, after
// the input checks every sweep makes.
func trial(g *graph.Graph, hosts Hosts, seed int64, fracs []float64) (Trial, error) {
	if err := validate(g, hosts, fracs); err != nil {
		return Trial{}, err
	}
	return newSweeper(g).runTrial(hosts, seed, fracs, nil, 0), nil
}

func TestRunTrialOnPolarStar(t *testing.T) {
	ps := topo.MustNewPolarStar(4, 3, topo.KindIQ)
	tr := must(trial(ps.G, nil, 1, []float64{0, 0.1, 0.3}))
	if len(tr.Curve) != 3 {
		t.Fatalf("curve length %d", len(tr.Curve))
	}
	p0 := tr.Curve[0]
	if !p0.Connected || p0.Diameter != 3 {
		t.Errorf("zero-failure point: %+v, want connected diameter 3", p0)
	}
	// Diameter/APL weakly increase with failures while connected.
	prevD, prevA := p0.Diameter, p0.AvgPath
	for _, p := range tr.Curve[1:] {
		if !p.Connected {
			break
		}
		if p.Diameter < prevD {
			t.Errorf("diameter decreased after failures: %d -> %d", prevD, p.Diameter)
		}
		if p.AvgPath < prevA-1e-9 {
			t.Errorf("avg path decreased after failures: %f -> %f", prevA, p.AvgPath)
		}
		prevD, prevA = p.Diameter, p.AvgPath
	}
	if tr.DisconnectionRatio <= 0.2 || tr.DisconnectionRatio > 1 {
		t.Errorf("implausible disconnection ratio %f", tr.DisconnectionRatio)
	}
}

func TestDisconnectionRatioExact(t *testing.T) {
	// A path graph disconnects at the very first removed edge.
	b := graph.NewBuilder("path", 10)
	for i := 0; i+1 < 10; i++ {
		b.AddEdge(i, i+1)
	}
	tr := must(trial(b.Build(), nil, 3, nil))
	if tr.DisconnectionRatio != 1.0/9.0 {
		t.Errorf("path disconnection ratio = %f, want 1/9", tr.DisconnectionRatio)
	}
}

func TestMedianTrialDeterministic(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	a := must(MedianTrial(ps.G, nil, 9, 7, []float64{0, 0.2}))
	b := must(MedianTrial(ps.G, nil, 9, 7, []float64{0, 0.2}))
	if a.Seed != b.Seed || a.DisconnectionRatio != b.DisconnectionRatio {
		t.Error("MedianTrial not deterministic")
	}
	if len(a.Curve) != 2 {
		t.Errorf("curve length %d", len(a.Curve))
	}
}

func TestHostRestrictedStats(t *testing.T) {
	// Fat-tree: measure only leaf routers. Zero-failure leaf diameter is
	// 4 (up to the core and down).
	ft := must(topo.NewFatTree(4))
	hosts := Hosts(ft.LeafRouters())
	tr := must(trial(ft.G, hosts, 2, []float64{0}))
	if tr.Curve[0].Diameter != 4 {
		t.Errorf("fat-tree leaf diameter = %d, want 4", tr.Curve[0].Diameter)
	}
	if !tr.Curve[0].Connected {
		t.Error("zero-failure fat-tree disconnected")
	}
}

func TestResilienceOrderingDFDiameterGrowsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// §11.2: at low failure ratios Dragonfly's diameter grows quickly
	// (single global link per group pair), while HyperX stays flat.
	df := must(topo.NewDragonfly(8, 4))
	hx := must(topo.NewHyperX(5, 5, 5))
	fr := []float64{0, 0.1}
	dfTr := must(MedianTrial(df.G, nil, 5, 11, fr))
	hxTr := must(MedianTrial(hx.G, nil, 5, 11, fr))
	if dfTr.Curve[1].Diameter <= dfTr.Curve[0].Diameter {
		t.Errorf("dragonfly diameter did not grow under 10%% failures: %d -> %d",
			dfTr.Curve[0].Diameter, dfTr.Curve[1].Diameter)
	}
	if hxTr.Curve[1].Diameter > hxTr.Curve[0].Diameter+1 {
		t.Errorf("hyperx diameter grew too fast: %d -> %d",
			hxTr.Curve[0].Diameter, hxTr.Curve[1].Diameter)
	}
}

func TestSingleHostTrivially(t *testing.T) {
	b := graph.NewBuilder("k3", 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	tr := must(trial(b.Build(), Hosts{1}, 1, []float64{0.9}))
	if tr.DisconnectionRatio != float64(4)/float64(3) {
		// A single host never disconnects: the bisection reports
		// len(edges)+1 removals.
		t.Errorf("single-host disconnection ratio = %f", tr.DisconnectionRatio)
	}
}

// TestValidationErrors pins the input checks: malformed sweeps are
// rejected with an error instead of panicking or silently looping.
func TestValidationErrors(t *testing.T) {
	ps := topo.MustNewPolarStar(3, 3, topo.KindIQ)
	if _, err := trial(ps.G, Hosts{}, 1, nil); err == nil {
		t.Error("empty non-nil host set accepted")
	}
	if _, err := trial(ps.G, Hosts{-1}, 1, nil); err == nil {
		t.Error("negative host accepted")
	}
	if _, err := trial(ps.G, Hosts{ps.G.N()}, 1, nil); err == nil {
		t.Error("out-of-range host accepted")
	}
	// A repeated host used to pass and make the pair count disagree with
	// len(hosts)·(len(hosts)−1): an intact graph read as disconnected.
	if _, err := trial(ps.G, Hosts{0, 1, 1, 2}, 1, []float64{0}); err == nil {
		t.Error("duplicate host accepted")
	}
	if _, err := trial(ps.G, nil, 1, []float64{-0.1}); err == nil {
		t.Error("negative failure fraction accepted")
	}
	if _, err := trial(ps.G, nil, 1, []float64{0.2, 1.5}); err == nil {
		t.Error("failure fraction > 1 accepted")
	}
	if _, err := trial(ps.G, nil, 1, []float64{0.4, 0.2}); err == nil {
		t.Error("descending failure fractions accepted")
	}
	if _, err := MedianTrial(ps.G, nil, 0, 1, []float64{0}); err == nil {
		t.Error("zero trial count accepted")
	}
	if _, err := MedianTrial(ps.G, nil, -3, 1, []float64{0}); err == nil {
		t.Error("negative trial count accepted")
	}
}
