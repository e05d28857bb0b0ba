package sim

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"polarstar/internal/obs"
)

var updateEngineGolden = flag.Bool("update-engine-golden", false,
	"rewrite testdata/engine_golden.txt from a Workers=1 pass (only to re-pin after an intended model change)")

const engineGoldenFile = "testdata/engine_golden.txt"

// goldenCase is one pinned engine run: everything but the worker count.
type goldenCase struct {
	name     string
	spec     string
	pattern  string // "" selects uniform
	bufFlits int    // 0 keeps the default VC depth
	mode     RoutingMode
	load     float64
	seed     int64
	windows  [3]int // warmup, measure, drain
	observed bool   // attach an obs.SimRun with a 250-cycle interval series
	lanes    int
	plan     *Plan
	pins     mechanism // engine paths the run must exercise (observed cases only)
}

// mechanism is one engine path a golden case pins, proven to have run by
// a nonzero counter in the case's obs artifact.
type mechanism uint8

const (
	creditStall  mechanism = 1 << iota // stall_credit
	sourceRetry                        // faults.retries
	inFlightDrop                       // faults.dropped_in_flight
	appliedEvent                       // faults.events_applied
	laneDemotion                       // lanes.demoted
	// laneFailover (lanes.failovers) is pinned by no case here: the lanes
	// case reads 0. TestSlabInvariantAfterRun pins a run that reaches it.
	laneFailover
)

// unexercised names the mechanisms of ms whose counter in m is zero.
func (ms mechanism) unexercised(m *obs.SimRun) []string {
	var faults obs.SimFaults
	if m.Faults != nil {
		faults = *m.Faults
	}
	var lanes obs.SimLanes
	if m.Lanes != nil {
		lanes = *m.Lanes
	}
	var failovers int64
	for _, n := range lanes.Failovers {
		failovers += n
	}
	var missing []string
	for _, c := range []struct {
		m     mechanism
		name  string
		count int64
	}{
		{creditStall, "credit stall", int64(m.StallCredit)},
		{sourceRetry, "source retry", int64(faults.Retries)},
		{inFlightDrop, "in-flight drop", int64(faults.DroppedInFlight)},
		{appliedEvent, "applied event", faults.EventsApplied},
		{laneDemotion, "lane demotion", lanes.Demoted},
		{laneFailover, "lane failover", failovers},
	} {
		if ms&c.m != 0 && c.count == 0 {
			missing = append(missing, c.name)
		}
	}
	return missing
}

// digest runs the case and hashes its Result plus, when observed, the
// marshaled obs.SimRun (every counter, stall bucket, per-VC vector,
// occupancy mark, fault/lane section and interval row). It fails the
// test when a mechanism the case pins did not run.
func (c goldenCase) digest(t *testing.T, workers int) string {
	t.Helper()
	p := DefaultParams(c.seed)
	p.Warmup, p.Measure, p.Drain = c.windows[0], c.windows[1], c.windows[2]
	p.Workers = workers
	p.Lanes = c.lanes
	p.Plan = c.plan
	if c.bufFlits > 0 {
		p.BufFlitsPerVC = c.bufFlits
	}
	pattern := c.pattern
	if pattern == "" {
		pattern = "uniform"
	}
	if c.observed {
		p.Metrics = &obs.SimRun{}
		p.MetricsInterval = 250
	}
	res, err := RunPoint(context.Background(), must(NewSpec(c.spec)), c.mode, pattern, c.load, p)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "result=%+v\n", res)
	if c.observed {
		b, err := json.Marshal(p.Metrics)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(h, "obs=%s\n", b)
		if missing := c.pins.unexercised(p.Metrics); len(missing) > 0 {
			t.Errorf("%s: pinned mechanisms never ran: %v", c.name, missing)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// engineGoldenCases is the matrix the golden file pins: unobserved and
// observed runs of every small spec, saturated unobserved runs, a
// scripted three-event plan, a dense thirteen-event plan at low, knee and
// saturated load, and one faulted multipath run — and, because uniform
// traffic at the default VC depth never runs a channel out of credits,
// observed congested runs (adversarial traffic, shallow buffers, with and
// without the dense plan) where most units sit parked for credit while
// others keep winning the channel they wait on. Each case names the
// mechanisms it pins, so a digest cannot keep matching after the path it
// was recorded to cover stops running.
func engineGoldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, name := range smallSpecNames {
		for _, mode := range []RoutingMode{MIN, UGALMode} {
			for _, observed := range []bool{true, false} {
				suffix := ""
				if !observed {
					suffix = "/noobs"
				}
				cases = append(cases, goldenCase{
					name: name + "/" + mode.String() + suffix, spec: name, mode: mode,
					load: 0.3, seed: 1, windows: [3]int{500, 1000, 1500}, observed: observed,
				})
			}
		}
	}
	for _, load := range []float64{0.6, 0.95} {
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("sat/%.2f", load), spec: "ps-iq-small", mode: UGALMode,
			load: load, seed: 3, windows: [3]int{500, 1000, 1500},
		})
	}

	small := must(NewSpec("ps-iq-small"))
	edge := offRouterEdge(t, small, 3)
	scripted := &Plan{Events: []FaultEvent{
		{Cycle: 350, Kind: LinkDown, U: edge[0], V: edge[1]},
		{Cycle: 420, Kind: RouterDown, U: 3},
		{Cycle: 600, Kind: LinkUp, U: edge[0], V: edge[1]},
	}}
	edges := small.Graph.Edges()
	dense := &Plan{}
	for i := 0; i < 12; i++ {
		e := edges[37*i%len(edges)]
		dense.Events = append(dense.Events, FaultEvent{Cycle: int64(400 + 53*i), Kind: LinkDown, U: e[0], V: e[1]})
	}
	dense.Events = append(dense.Events,
		FaultEvent{Cycle: 777, Kind: RouterDown, U: 5},
		FaultEvent{Cycle: 1203, Kind: RouterUp, U: 5})
	for _, mode := range []RoutingMode{MIN, UGALMode} {
		cases = append(cases, goldenCase{
			name: "fault/" + mode.String(), spec: "ps-iq-small", mode: mode,
			load: 0.3, seed: 7, windows: [3]int{300, 600, 2500}, observed: true, plan: scripted,
			pins: sourceRetry | inFlightDrop | appliedEvent,
		})
		for _, load := range []float64{0.3, 0.7, 0.95} {
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("dense/%s/%.2f", mode, load), spec: "ps-iq-small", mode: mode,
				load: load, seed: 7, windows: [3]int{300, 1200, 2500}, observed: true, plan: dense,
				pins: sourceRetry | inFlightDrop | appliedEvent,
			})
		}
	}
	for _, mode := range []RoutingMode{MIN, UGALMode} {
		for _, name := range []string{"ps-iq-small", "df-small", "bf-small"} {
			cases = append(cases, goldenCase{
				name: "congested/" + name + "/" + mode.String(), spec: name, pattern: "adversarial", mode: mode,
				load: 0.6, seed: 3, windows: [3]int{200, 400, 400}, observed: true, pins: creditStall,
			})
		}
		cases = append(cases, goldenCase{
			name: "shallow/" + mode.String(), spec: "ps-iq-small", pattern: "permutation", bufFlits: 8, mode: mode,
			// Ends mid-interval with the network still full: the spans open
			// at the last cycle are settled by the run end, not by a row.
			load: 0.95, seed: 3, windows: [3]int{200, 400, 300}, observed: true, pins: creditStall,
		}, goldenCase{
			name: "dense-congested/" + mode.String(), spec: "ps-iq-small", pattern: "adversarial", bufFlits: 8, mode: mode,
			load: 0.7, seed: 7, windows: [3]int{300, 600, 600}, observed: true, plan: dense,
			pins: creditStall | sourceRetry | inFlightDrop | appliedEvent,
		})
	}
	cases = append(cases, goldenCase{
		name: "lanes/" + MPUGALMode.String(), spec: mpTestSpec, mode: MPUGALMode,
		load: 0.7, seed: 7, windows: [3]int{300, 600, 900}, observed: true, lanes: 3,
		plan: treeLanePlan(t, must(NewSpec(mpTestSpec)), 3, 2, 350, 700),
		pins: sourceRetry | inFlightDrop | appliedEvent | laneDemotion,
	})
	return cases
}

// TestEngineGolden pins the engine's whole observable output — Results
// and telemetry, healthy, saturated and faulted — to digests recorded at
// Workers=1 from the commit before wake scheduling became the only
// arbitration schedule, and requires them at 1, 4 and 16 workers. It is
// the byte contract that attaching telemetry or a fault plan changes
// neither what the engine computes nor what it reports. Under the race
// detector (16x slower, and blind to a one-goroutine run) only the
// 16-worker pass runs; the bytes at 1 and 4 are the plain run's job.
func TestEngineGolden(t *testing.T) {
	cases := engineGoldenCases(t)
	if *updateEngineGolden {
		var sb strings.Builder
		for _, c := range cases {
			fmt.Fprintf(&sb, "%s %s\n", c.name, c.digest(t, 1))
		}
		if err := os.WriteFile(engineGoldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(engineGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if len(want) != len(cases) {
		t.Fatalf("%s pins %d runs, the matrix has %d", engineGoldenFile, len(want), len(cases))
	}
	for _, workers := range []int{1, 4, numShards} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			if raceEnabled && workers != numShards {
				t.Skip("race detector on: the 16-worker pass covers it")
			}
			t.Parallel()
			for _, c := range cases {
				if got := c.digest(t, workers); got != want[c.name] {
					t.Errorf("%s: digest %s, golden %s", c.name, got, want[c.name])
				}
			}
		})
	}
}
