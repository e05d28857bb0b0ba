package main

import (
	"strings"
	"testing"
)

// refCurve is a curve that saturates after load 0.5 on psfig's ladder
// (checkCurve works on any ladder; fig_sweep's own has three steps).
func refCurve() curveRef {
	c := curveRef{Spec: "s", Routing: "MIN", Pattern: "uniform", SatLoad: 0.5, WindowPackets: 1e6}
	for i, load := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7} {
		sat := load > 0.5
		p := pointRef{Load: load, AvgLatency: 20 + 2*float64(i), Throughput: load, DeliveredFrac: 1, Saturated: sat}
		if sat {
			p.AvgLatency, p.Throughput, p.DeliveredFrac = 900, 0.52, 0.7
		}
		c.Points = append(c.Points, p)
	}
	return c
}

func clone(c curveRef) curveRef {
	c.Points = append([]pointRef(nil), c.Points...)
	return c
}

func TestCheckCurveTolerances(t *testing.T) {
	ref := refCurve()
	if bad := checkCurve(clone(ref), ref); len(bad) != 0 {
		t.Fatalf("a curve must match itself: %v", bad)
	}
	cases := []struct {
		name   string
		edit   func(*curveRef)
		expect string // substring of the one expected complaint; "" for none
	}{
		{"saturation one step lower", func(c *curveRef) { c.SatLoad = 0.4; c.Points[5].Saturated = true }, ""},
		{"saturation one step higher", func(c *curveRef) { c.SatLoad = 0.6 }, ""},
		{"saturation two steps lower", func(c *curveRef) { c.SatLoad = 0.3 }, "saturation load"},
		{"every point saturated", func(c *curveRef) { c.SatLoad = 0 }, "saturation load"},
		{"latency +4% below the knee", func(c *curveRef) { c.Points[1].AvgLatency *= 1.04 }, ""},
		{"latency +6% below the knee", func(c *curveRef) { c.Points[1].AvgLatency *= 1.06 }, "avg latency"},
		{"latency +40% one step under saturation", func(c *curveRef) { c.Points[4].AvgLatency *= 1.4 }, ""},
		{"latency at the saturation load is free", func(c *curveRef) { c.Points[5].AvgLatency *= 3 }, ""},
		{"throughput 0.5% off", func(c *curveRef) { c.Points[2].Throughput *= 1.005 }, ""},
		{"throughput 2% off", func(c *curveRef) { c.Points[2].Throughput *= 1.02 }, "throughput"},
		{"lost packets below saturation", func(c *curveRef) { c.Points[0].DeliveredFrac = 0.999 }, "delivered fraction"},
		{"saturated points are not judged", func(c *curveRef) { c.Points[7].Throughput = 0.1; c.Points[7].DeliveredFrac = 0.2 }, ""},
		{"a different ladder", func(c *curveRef) { c.Points[3].Load = 0.35 }, "is load"},
		{"a missing point", func(c *curveRef) { c.Points = c.Points[:7] }, "load points"},
	}
	for _, tc := range cases {
		got := clone(ref)
		tc.edit(&got)
		bad := checkCurve(got, ref)
		switch {
		case tc.expect == "" && len(bad) != 0:
			t.Errorf("%s: unexpected %v", tc.name, bad)
		case tc.expect != "" && (len(bad) != 1 || !strings.Contains(bad[0], tc.expect)):
			t.Errorf("%s: got %v, want one complaint containing %q", tc.name, bad, tc.expect)
		}
	}
}

func TestAcceptedToleranceWidensWithFewPackets(t *testing.T) {
	// 4800 packets: one sigma is 1.4 %, so 1 % would fail healthy runs.
	if tol := acceptedTol(4800); tol < 0.07 || tol > 0.073 {
		t.Errorf("acceptedTol(4800) = %v, want 5/sqrt(4800)", tol)
	}
	if tol := acceptedTol(1e6); tol != throughputTol {
		t.Errorf("acceptedTol(1e6) = %v, want the 1%% floor", tol)
	}
	ref := refCurve()
	got := clone(ref)
	got.WindowPackets = 4800 / 0.05 // the 0.05 point injects about 4800 packets
	got.Points[0].Throughput *= 1.05
	if bad := checkCurve(got, ref); len(bad) != 0 {
		t.Errorf("5%% off on 4800 packets is inside five sigma: %v", bad)
	}
}

func TestCheckResilience(t *testing.T) {
	ref := []resRef{
		{"MIN", 0, 0.3008, 0}, {"MIN", 32, 0.2997, 1388},
		{"MP-UGAL", 0, 0.3008, 0}, {"MP-UGAL", 32, 0.3008, 0},
	}
	if bad := checkResilience(ref, ref, 0.3); len(bad) != 0 {
		t.Fatalf("reference against itself: %v", bad)
	}
	edit := func(i int, f func(*resRef)) []resRef {
		got := append([]resRef(nil), ref...)
		f(&got[i])
		return got
	}
	// Another seed: losses move, throughput barely — still fine.
	if bad := checkResilience(edit(1, func(p *resRef) { p.Lost, p.Throughput = 1191, 0.2992 }), ref, 0.3); len(bad) != 0 {
		t.Errorf("seed-to-seed variation flagged: %v", bad)
	}
	for name, got := range map[string][]resRef{
		"multipath loses packets": edit(3, func(p *resRef) { p.Lost = 3 }),
		"MIN loses nothing":       edit(1, func(p *resRef) { p.Lost = 0 }),
		"healthy run loses":       edit(0, func(p *resRef) { p.Lost = 1 }),
		"throughput collapses":    edit(1, func(p *resRef) { p.Throughput = 0.25 }),
		"unknown point":           edit(2, func(p *resRef) { p.Mode = "VAL" }),
	} {
		if bad := checkResilience(got, ref, 0.3); len(bad) != 1 {
			t.Errorf("%s: got %v, want exactly one complaint", name, bad)
		}
	}
}

func TestCheckGraph(t *testing.T) {
	ref := graphRef{N: 13272, Diameter: 3, ASPL: 2.9, Fig14: map[string]float64{"hx": 0.6, "df": 0.5}}
	ok := graphRef{N: 13272, Diameter: 3, ASPL: 2.9, Fig14: map[string]float64{"hx": 0.63, "df": 0.46}}
	if bad := checkGraph(ok, ref); len(bad) != 0 {
		t.Errorf("within tolerance: %v", bad)
	}
	for name, got := range map[string]graphRef{
		"diameter":     {N: 13272, Diameter: 4, ASPL: 2.9, Fig14: ok.Fig14},
		"aspl":         {N: 13272, Diameter: 3, ASPL: 2.91, Fig14: ok.Fig14},
		"fig14 ratio":  {N: 13272, Diameter: 3, ASPL: 2.9, Fig14: map[string]float64{"hx": 0.7, "df": 0.5}},
		"fig14 absent": {N: 13272, Diameter: 3, ASPL: 2.9, Fig14: map[string]float64{"hx": 0.6}},
	} {
		if bad := checkGraph(got, ref); len(bad) != 1 {
			t.Errorf("%s: got %v, want exactly one complaint", name, bad)
		}
	}
}

func TestCommittedReferenceIsComplete(t *testing.T) {
	ref := loadReference()
	if ref.Seed != 1 {
		t.Errorf("reference seed %d, want 1", ref.Seed)
	}
	fig, res, gr := ref.workload("fig_sweep"), ref.workload("fault_resilience"), ref.workload("graph_search")
	if fig == nil || len(fig.Curves) != len(figSpecs)*len(figPanels) || fig.Digest == "" {
		t.Errorf("fig_sweep reference incomplete: %+v", fig)
	}
	if res == nil || len(res.Resilience) != len(resModes)*2 || res.Digest == "" {
		t.Errorf("fault_resilience reference incomplete: %+v", res)
	}
	if gr == nil || gr.Graph == nil || gr.Graph.Diameter != 3 || len(gr.Graph.Fig14) != 8 {
		t.Errorf("graph_search reference incomplete: %+v", gr)
	}
}
