package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestManifestMatchesTables keeps the committed BENCHMARK.json equal to
// what the metric tables generate (go run ./bench -manifest), and inside
// the limits the driver refuses a file for.
func TestManifestMatchesTables(t *testing.T) {
	want := manifestJSON()
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the metric tables; regenerate with: go run ./bench -manifest > BENCHMARK.json")
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(want))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || len(w.Why) == 0 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
		if workloadFns[w.Name] == nil {
			t.Errorf("%s: no workload function", w.Name)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %+v", d)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup || len(endToEnd) > 16 {
		t.Errorf("end_to_end needs setup_s and at most 16 metrics (has %d)", len(endToEnd))
	}
	if n := len(perLayer()); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range perLayer() {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %+v", d)
		}
	}
}

// TestSmoke runs every workload at -smoke size, untraced and traced, in
// this process: the harness end to end in a couple of seconds.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		var digests [2]string
		for i, traced := range []bool{false, true} {
			e := newEnv(w.Name, 1, 1, traced, true, false)
			workloadFns[w.Name](e)
			res := e.finish()
			digests[i] = res.Digest
			if !res.correct() || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: failures %v mismatches %v attempted %d", w.Name, traced, res.Failures, res.Mismatches, res.Attempted)
			}
			line := project(res)
			enc, err := json.Marshal(line)
			if err != nil || !json.Valid(enc) {
				t.Fatalf("%s: contract line does not encode: %v", w.Name, err)
			}
			if !traced {
				if len(line.Metrics) != len(endToEnd) {
					t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(line.Metrics), len(endToEnd))
				}
				for name, m := range line.Metrics {
					if !(m.Value > 0) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: end-to-end metric %s = %v; must never be 0", w.Name, name, m.Value)
					}
				}
				continue
			}
			if len(line.Metrics) != len(perLayer()) {
				t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(line.Metrics), len(perLayer()))
			}
			for name := range res.Metrics {
				if _, listed := line.Metrics[name]; !listed && !isEndToEnd(name) {
					t.Errorf("%s: metric %s is measured but not in BENCHMARK.json", w.Name, name)
				}
			}
			var selfSum float64
			for _, l := range layers {
				selfSum += res.Metrics["self_s."+l]
			}
			if wall := res.Metrics["bench.traced_wall_s"]; wall <= 0 || math.Abs(selfSum/wall-1) > 0.05 {
				t.Errorf("%s: per-layer self times sum to %v s of a %v s traced pass", w.Name, selfSum, wall)
			}
			if len(res.Spans) == 0 {
				t.Errorf("%s: traced run kept no spans", w.Name)
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: traced outputs differ from untraced", w.Name)
		}
	}
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return true
		}
	}
	return false
}

// TestUnitBests pins the rule every end-to-end time is made by: the
// least value per key over the passes, summed by key prefix in
// first-seen order.
func TestUnitBests(t *testing.T) {
	e := newEnv("fig_sweep", 1, 1, false, true, false)
	for _, pass := range [][]float64{{3, 5, 0.2}, {2, 6, 0.3}, {4, 4, 0.1}} {
		e.least("curve/a", pass[0])
		e.least("curve/b", pass[1])
		e.least("req/x", pass[2])
	}
	if got := e.bests("curve/"); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("bests(curve/) = %v, want [2 4]", got)
	}
	if got := e.bestSum("curve/"); got != 6 {
		t.Errorf("bestSum(curve/) = %v, want 6: the sum of the units' best times, not the best pass (8)", got)
	}
	if got := e.bestSum("req/"); got != 0.1 {
		t.Errorf("bestSum(req/) = %v, want 0.1", got)
	}
}
