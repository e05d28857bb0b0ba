package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{Name: "bench.pass", Parent: -1, Start: 0, End: 100},
		{Name: "sim.run", Parent: 0, Start: 10, End: 40},
		{Name: "sim.run", Parent: 0, Start: 30, End: 60}, // overlaps the first by 10
		{Name: "obs.marshal", Parent: 0, Start: 70, End: 80},
		{Name: "route.path", Parent: 1, Start: 10, End: 15},
	}
	self := selfTimes(spans)
	// Root: 100 − |[10,60) ∪ [70,80)| = 100 − 60.
	want := []int64{40, 25, 30, 10, 5}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
}

func TestAttributeWallAddsUpToRoot(t *testing.T) {
	// Two engine runs sharing the machine for the whole pass: each lasts
	// 1 s of wall, together they explain 1 s, not 2.
	spans := []span{
		{Name: "bench.pass", Parent: -1, Start: 0, End: 1e9},
		{Name: "sim.run", Parent: 0, Start: 0, End: 1e9},
		{Name: "sim.run", Parent: 0, Start: 0, End: 1e9},
	}
	got := attributeWall(spans)
	if math.Abs(got["sim"]-1) > 1e-9 || got["bench"] != 0 {
		t.Errorf("concurrent children: %v, want sim=1 bench=0", got)
	}

	// Sequential children with driver time between them, nested two deep.
	spans = []span{
		{Name: "bench.pass", Parent: -1, Start: 0, End: 10e9},
		{Name: "faults.sweep", Parent: 0, Start: 1e9, End: 5e9},
		{Name: "obs.marshal", Parent: 0, Start: 6e9, End: 7e9},
		{Name: "sim.run", Parent: 1, Start: 2e9, End: 4e9},
		{Name: "sim.run", Parent: 1, Start: 2e9, End: 5e9}, // concurrent with the other run
	}
	got = attributeWall(spans)
	var sum float64
	for _, v := range got {
		sum += v
	}
	if math.Abs(sum-rootWall(spans)) > 1e-9 {
		t.Errorf("layer shares sum to %v, root wall %v: %v", sum, rootWall(spans), got)
	}
	// faults.sweep covers [1,5): self 1 s ([1,2)); its children cover 3 s
	// and last 5 s together, so sim is charged 3 s.
	if math.Abs(got["faults"]-1) > 1e-9 || math.Abs(got["sim"]-3) > 1e-9 || math.Abs(got["obs"]-1) > 1e-9 || math.Abs(got["bench"]-5) > 1e-9 {
		t.Errorf("shares = %v, want faults=1 sim=3 obs=1 bench=5", got)
	}
}

func TestNilTracerRunsTheCall(t *testing.T) {
	var tr *tracer
	ran := false
	d := tr.do(-1, "sim.run", 0, func(self int) {
		ran = true
		if self != -1 {
			t.Errorf("nil tracer handed out span %d", self)
		}
	})
	if !ran || d < 0 {
		t.Errorf("nil tracer: ran %v, duration %v", ran, d)
	}
}

func TestTracerRecordsParentAndID(t *testing.T) {
	tr := newTracer()
	tr.do(-1, "bench.pass", 0, func(pass int) {
		tr.do(pass, "sim.run", 7, func(int) {})
	})
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[1].ID != 7 || tr.spans[1].layer() != "sim" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if s := tr.spans[1]; s.Start < tr.spans[0].Start || s.End > tr.spans[0].End || s.End < s.Start {
		t.Errorf("child %+v not inside parent %+v", s, tr.spans[0])
	}
}
