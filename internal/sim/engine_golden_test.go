package sim

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"polarstar/internal/obs"
)

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
	sourceRetry                        // retries
	inFlightDrop                       // dropped_in_flight
	appliedEvent                       // events_applied
	laneDemotion                       // demoted
	laneFailover                       // failovers
)

// obsCounter is one obs counter a golden row shows by name; pin is the
// mechanism a nonzero count proves ran (0: shown, pins nothing).
type obsCounter struct {
	name string
	pin  mechanism
	n    int64
}

// obsCounters lists, in row order, the stall counters of an observed run
// and the fault and lane counters the mechanisms are read from (0 when
// the run has no such section).
func obsCounters(m *obs.SimRun) []obsCounter {
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
	return []obsCounter{
		{"stall_inject", 0, int64(m.StallInject)},
		{"stall_eject", 0, int64(m.StallEject)},
		{"stall_channel", 0, int64(m.StallChannel)},
		{"stall_credit", creditStall, int64(m.StallCredit)},
		{"retries", sourceRetry, int64(faults.Retries)},
		{"dropped_in_flight", inFlightDrop, int64(faults.DroppedInFlight)},
		{"events_applied", appliedEvent, faults.EventsApplied},
		{"demoted", laneDemotion, lanes.Demoted},
		{"failovers", laneFailover, failovers},
	}
}

// row runs the case and renders its golden row: the name, the Result as
// printed by %+v and, when observed, the obs counters by name and the
// SHA-256 of the marshaled obs.SimRun (every counter, stall bucket,
// per-VC vector, occupancy mark, fault/lane section and interval row).
// It fails the test when a mechanism the case pins did not run.
func (c goldenCase) row(t *testing.T, workers int) string {
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
	row := fmt.Sprintf("%s %+v", c.name, res)
	if !c.observed {
		return row
	}
	for _, oc := range obsCounters(p.Metrics) {
		row += fmt.Sprintf(" %s=%d", oc.name, oc.n)
		if c.pins&oc.pin != 0 && oc.n == 0 {
			t.Errorf("%s: pinned mechanism never ran: %s", c.name, oc.name)
		}
	}
	b, err := json.Marshal(p.Metrics)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return fmt.Sprintf("%s obs=%x", row, sha256.Sum256(b))
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
	}, goldenCase{
		// Shallow buffers under adversarial traffic keep units parked for
		// credit while two of the three lanes fail under them, so queued
		// head packets fail over onto the third (TestSlabInvariantAfterRun
		// checks the slab on the same run).
		name: "lane-failover/" + MPUGALMode.String(), spec: mpTestSpec, pattern: "adversarial", bufFlits: 8, mode: MPUGALMode,
		load: 0.7, seed: 11, windows: [3]int{300, 600, 1500}, observed: true, lanes: 3, plan: failoverPlan(t),
		pins: creditStall | sourceRetry | inFlightDrop | appliedEvent | laneDemotion | laneFailover,
	})
	return cases
}

// TestEngineGolden pins the engine's whole observable output — Results
// and telemetry, healthy, saturated and faulted — to one text row per
// case, recorded at Workers=1, and requires the same rows at 1, 4 and 16
// workers. It is the byte contract that attaching telemetry or a fault
// plan changes neither what the engine computes nor what it reports.
// Under the race detector (16x slower, and blind to a one-goroutine run)
// only the 16-worker pass runs; the bytes at 1 and 4 are the plain run's
// job. POLARSTAR_REGEN=1 rewrites the file from a Workers=1 pass instead
// (TestRegen in the repository root runs every such rewrite).
func TestEngineGolden(t *testing.T) {
	cases := engineGoldenCases(t)
	if os.Getenv("POLARSTAR_REGEN") == "1" {
		var sb strings.Builder
		for _, c := range cases {
			sb.WriteString(c.row(t, 1) + "\n")
		}
		if err := os.WriteFile(engineGoldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(engineGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, row := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, _, _ := strings.Cut(row, " ")
		want[name] = row
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
				if got := c.row(t, workers); got != want[c.name] {
					t.Errorf("%s moved:%s", c.name, fieldDiff(want[c.name], got))
				}
			}
		})
	}
}

// fieldDiff lists the space-separated fields in which two golden rows
// differ, as "golden → now".
func fieldDiff(want, got string) string {
	w, g := strings.Fields(want), strings.Fields(got)
	if len(w) != len(g) {
		return fmt.Sprintf("\n golden %s\n now    %s", want, got)
	}
	var sb strings.Builder
	for i := range w {
		if w[i] != g[i] {
			fmt.Fprintf(&sb, "\n %s → %s", w[i], g[i])
		}
	}
	return sb.String()
}
