package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// reference.json holds the statistics this repository's own code
// produced at the parent commit with -seed 1 (written by -record). It is
// the only reference there is: the model is not validated against the
// paper's absolute latencies (a different simulator, see EXPERIMENTS.md),
// and the committed results/*.txt are stale against HEAD (README.md), so
// neither is read.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Seed      int64                   `json:"seed"`
	Workloads map[string]*workloadRef `json:"workloads"`
}

// workloadRef is one workload's recorded statistics. Digest pins the
// exact output at the reference seed (reported as exact_match, never a
// failure); the rest are compared under tolerances that hold at any
// seed.
type workloadRef struct {
	Digest     string     `json:"digest,omitempty"`
	Curves     []curveRef `json:"curves,omitempty"`     // fig_sweep
	Resilience []resRef   `json:"resilience,omitempty"` // fault_resilience
	Graph      *graphRef  `json:"graph,omitempty"`      // graph_search
}

type curveRef struct {
	Spec    string  `json:"spec"`
	Routing string  `json:"routing"`
	Pattern string  `json:"pattern"`
	SatLoad float64 `json:"sat_load"`
	// WindowPackets is endpoints × measurement cycles ÷ flits per packet:
	// the packets injected in the measurement window per unit of load.
	WindowPackets float64    `json:"window_packets"`
	Points        []pointRef `json:"points"`
}

type pointRef struct {
	Load          float64 `json:"load"`
	AvgLatency    float64 `json:"avg_latency"`
	Throughput    float64 `json:"throughput"`
	DeliveredFrac float64 `json:"delivered_frac"`
	Saturated     bool    `json:"saturated"`
}

type resRef struct {
	Mode       string  `json:"mode"`
	Failures   int     `json:"failures"`
	Throughput float64 `json:"throughput"`
	Lost       int64   `json:"lost"`
}

type graphRef struct {
	N        int                `json:"n"` // PolarStar-IQ(23,11)
	Diameter int                `json:"diameter"`
	ASPL     float64            `json:"aspl"`
	Fig14    map[string]float64 `json:"fig14_disconnection_ratio"` // per full-scale spec
}

func loadReference() *reference {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		// The file is compiled in, so only a bad commit can break it.
		panic(fmt.Sprintf("bench: reference.json: %v", err))
	}
	return &r
}

func (r *reference) workload(name string) *workloadRef {
	if r == nil {
		return nil
	}
	return r.Workloads[name]
}

// Tolerances of the reference comparison. They are physics, not
// bit-identity: a change that re-orders random draws moves every number
// a little and must still pass, one that breaks the model must not. The
// driver runs seeds the reference was not recorded at, so each tolerance
// is what many seeds of the parent's code stay inside (README.md): at
// measurement windows of a few hundred to 2000 cycles a curve's
// saturation load moves by one ladder step on a third of the curves,
// latency one step below it by up to 45 %, and accepted load by its
// Poisson noise.
const (
	latencyTol    = 0.05 // average latency below the knee (two or more steps under saturation)
	throughputTol = 0.01 // accepted vs offered load below saturation, or 5 sigma of the packet count
	fig14Tol      = 0.05 // disconnection ratio, absolute (seeded trials)
	asplTol       = 1e-9 // ASPL of a fixed graph is exact up to float printing
)

func relDiff(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// acceptedTol is the allowed relative gap between accepted and offered
// load when about n packets are injected in the measurement window: 1 %,
// widened to five standard deviations of a count of n.
func acceptedTol(n float64) float64 {
	if n <= 0 {
		return throughputTol
	}
	return math.Max(throughputTol, 5/math.Sqrt(n))
}

// checkCurve compares one latency-load curve with the reference curve
// of the same (spec, routing, pattern) and returns what is out of
// tolerance. The saturation load is within one ladder step of the
// reference. Strictly below the reference saturation load every measured
// packet is delivered and accepted load matches offered load; two or
// more steps below it (below the knee) average latency is within 5 % of
// the reference.
func checkCurve(got, ref curveRef) []string {
	var bad []string
	id := fmt.Sprintf("%s/%s/%s", got.Spec, got.Routing, got.Pattern)
	if len(got.Points) != len(ref.Points) {
		return append(bad, fmt.Sprintf("%s: %d load points, reference %d", id, len(got.Points), len(ref.Points)))
	}
	step := func(c curveRef) int { // index of the saturation load on the ladder, -1 when every point saturated
		for i := len(c.Points) - 1; i >= 0; i-- {
			if c.Points[i].Load == c.SatLoad {
				return i
			}
		}
		return -1
	}
	refStep := step(ref)
	if d := step(got) - refStep; d < -1 || d > 1 {
		bad = append(bad, fmt.Sprintf("%s: saturation load %.2f, reference %.2f (more than one step)", id, got.SatLoad, ref.SatLoad))
	}
	for i, p := range got.Points {
		rp := ref.Points[i]
		if p.Load != rp.Load {
			bad = append(bad, fmt.Sprintf("%s: point %d is load %.2f, reference %.2f", id, i, p.Load, rp.Load))
			continue
		}
		if i >= refStep {
			continue
		}
		if p.DeliveredFrac != 1 {
			bad = append(bad, fmt.Sprintf("%s@%.2f: delivered fraction %.4f below saturation", id, p.Load, p.DeliveredFrac))
		}
		if tol := acceptedTol(p.Load * got.WindowPackets); relDiff(p.Throughput, p.Load) > tol {
			bad = append(bad, fmt.Sprintf("%s@%.2f: throughput %.4f not within %.1f%% of load", id, p.Load, p.Throughput, 100*tol))
		}
		if i <= refStep-2 && relDiff(p.AvgLatency, rp.AvgLatency) > latencyTol {
			bad = append(bad, fmt.Sprintf("%s@%.2f: avg latency %.2f, reference %.2f (>5%%)", id, p.Load, p.AvgLatency, rp.AvgLatency))
		}
	}
	return bad
}

// checkResilience applies the resilience sweep's acceptance property
// (EXPERIMENTS E17, PR 10) and the reference throughputs: with no
// failures every mode accepts the offered load; at the highest failure
// count MP-UGAL loses nothing while MIN does; throughput stays within
// 1 % of the reference point.
func checkResilience(got, ref []resRef, load float64) []string {
	var bad []string
	maxF := 0
	for _, p := range got {
		maxF = max(maxF, p.Failures)
	}
	refAt := map[string]resRef{}
	for _, p := range ref {
		refAt[fmt.Sprintf("%s/%d", p.Mode, p.Failures)] = p
	}
	for _, p := range got {
		id := fmt.Sprintf("%s/%d", p.Mode, p.Failures)
		if p.Failures == 0 && (p.Lost != 0 || relDiff(p.Throughput, load) > throughputTol) {
			bad = append(bad, fmt.Sprintf("%s: healthy run lost %d, throughput %.4f vs load %.2f", id, p.Lost, p.Throughput, load))
		}
		if p.Failures == maxF && p.Mode == "MP-UGAL" && p.Lost != 0 {
			bad = append(bad, fmt.Sprintf("%s: multipath UGAL lost %d packets, want 0", id, p.Lost))
		}
		if p.Failures == maxF && p.Mode == "MIN" && p.Lost == 0 {
			bad = append(bad, fmt.Sprintf("%s: MIN lost nothing under %d failures", id, maxF))
		}
		rp, ok := refAt[id]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: no reference point", id))
			continue
		}
		if relDiff(p.Throughput, rp.Throughput) > throughputTol {
			bad = append(bad, fmt.Sprintf("%s: throughput %.4f, reference %.4f (>1%%)", id, p.Throughput, rp.Throughput))
		}
	}
	return bad
}

// checkGraph compares the structural statistics of graph_search.
func checkGraph(got, ref graphRef) []string {
	var bad []string
	if got.N != ref.N || got.Diameter != ref.Diameter {
		bad = append(bad, fmt.Sprintf("PolarStar-IQ(23,11): n=%d diameter=%d, reference n=%d diameter=%d", got.N, got.Diameter, ref.N, ref.Diameter))
	}
	if relDiff(got.ASPL, ref.ASPL) > asplTol {
		bad = append(bad, fmt.Sprintf("PolarStar-IQ(23,11): ASPL %.9f, reference %.9f", got.ASPL, ref.ASPL))
	}
	for spec, want := range ref.Fig14 {
		if g, ok := got.Fig14[spec]; !ok || math.Abs(g-want) > fig14Tol {
			bad = append(bad, fmt.Sprintf("fig14 %s: disconnection ratio %.3f, reference %.3f", spec, g, want))
		}
	}
	return bad
}
