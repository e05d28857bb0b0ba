// Live-fault resilience sweeps: the quantified-robustness complement of
// TrafficSweep. Instead of statically amputating links and re-routing on
// the degraded graph, ResilienceSweep scripts link failures *during* the
// run — the same nested plan for every compared routing mode — and asks
// how much throughput each mode sustains as the failure count grows.
// Multipath lanes (sim.MPMINMode/MPUGALMode) are the subject: demoted
// tree lanes shed load onto survivors with no global repair stall, so
// their curves should sit above single-table MIN at equal damage.
package faults

import (
	"context"
	"fmt"
	"math/rand"

	"polarstar/internal/obs"
	"polarstar/internal/route"
	"polarstar/internal/sim"
)

// ResilienceConfig parameterizes a resilience sweep.
type ResilienceConfig struct {
	// Modes are the routing curves to compare; empty selects the default
	// MIN vs UGAL vs MP-MIN comparison.
	Modes []sim.RoutingMode
	// Counts are the failure counts (links killed per run), one sweep
	// point each. The killed links are a prefix of one seed-shuffled edge
	// order, so successive counts nest: count f+1 scripts a superset of
	// count f's damage.
	Counts []int
	// Pattern and Load fix the traffic for every point.
	Pattern string
	Load    float64
	// KillCycle is when the scripted failures land (<= 0: end of warmup).
	KillCycle int64
	// MTBF, when positive, spreads the failures MTBF cycles apart
	// starting at KillCycle instead of one batch (a deterministic
	// mean-time-between-failures schedule).
	MTBF int64
	// Repair, when positive, is the MTTR: every killed link comes back
	// Repair cycles after it died, exercising lane re-probe promotion.
	Repair int64
	// RepairDelay is sim.Params.RepairDelay: the table-reconvergence
	// stall every applied fault event imposes on single-table repair
	// (0: instant). Applied identically to every compared mode.
	RepairDelay int64
	// Seed draws the failed-link order (independent of sim.Params.Seed).
	Seed int64
	// TargetLanes, when positive, draws the killed links from the tree
	// edges of the first TargetLanes multipath lanes (round-robin across
	// lanes, seed-shuffled within each) instead of uniformly from all
	// links. This scripts the adversarial scenario the lane design is
	// for: with TargetLanes < k the damage demotes only the targeted
	// lanes and the surviving trees keep every pair connected, so
	// MultiPath(k) should hold its throughput where the single-table
	// modes bleed retries.
	TargetLanes int
}

// ResiliencePoint is one (mode, failure count) simulation.
type ResiliencePoint struct {
	Failures int
	sim.Result
}

// ResilienceCurve is one routing mode's failure-count curve.
type ResilienceCurve struct {
	Mode   sim.RoutingMode
	Lanes  int // tree lanes of a multipath mode (0 otherwise)
	Points []ResiliencePoint
}

// ResilienceSweep runs every configured routing mode under the same
// scripted live-fault plans: for each failure count it kills that many
// links (a nested, seed-determined prefix) at KillCycle — spread by MTBF
// and repaired after Repair when set — and simulates the same offered
// load. All curves share plans, pattern, seed and load, so the only
// variable is the routing mode; every Result is bit-identical at any
// worker count.
func ResilienceSweep(spec *sim.Spec, cfg ResilienceConfig, params sim.Params) ([]ResilienceCurve, error) {
	return ResilienceSweepObs(spec, cfg, params, nil)
}

// ResilienceSweepObs is ResilienceSweep with telemetry: when fr is
// non-nil every point's engine fills a fresh SimRun (with the per-lane
// spray/failover section on multipath modes). Results are identical
// with fr on or off. (Both names stay: bench/ calls each.)
func ResilienceSweepObs(spec *sim.Spec, cfg ResilienceConfig, params sim.Params, fr *obs.FaultResilience) ([]ResilienceCurve, error) {
	if !sim.ValidLoad(cfg.Load) {
		return nil, fmt.Errorf("faults: offered load %g outside (0, 1]", cfg.Load)
	}
	if len(cfg.Counts) == 0 {
		return nil, fmt.Errorf("faults: resilience sweep needs at least one failure count")
	}
	edges := spec.Graph.Edges()
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.TargetLanes > 0 {
		var err error
		if edges, err = laneTargetPool(spec, cfg.TargetLanes, params, rng); err != nil {
			return nil, err
		}
	} else {
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	}
	for _, c := range cfg.Counts {
		if c < 0 || c > len(edges) {
			return nil, fmt.Errorf("faults: failure count %d outside [0, %d killable links]", c, len(edges))
		}
	}
	modes := cfg.Modes
	if len(modes) == 0 {
		modes = []sim.RoutingMode{sim.MIN, sim.UGALMode, sim.MPMINMode}
	}
	if cfg.Pattern == "" {
		cfg.Pattern = "uniform"
	}
	if cfg.KillCycle <= 0 {
		cfg.KillCycle = int64(params.Warmup)
	}

	if fr != nil {
		fr.Spec = spec.Name
		fr.Pattern = cfg.Pattern
		fr.Load = cfg.Load
		fr.KillCycle = cfg.KillCycle
		fr.MTBF = cfg.MTBF
		fr.Repair = cfg.Repair
		fr.TargetLanes = cfg.TargetLanes
		fr.RepairDelay = cfg.RepairDelay
		fr.Curves = make([]*obs.FaultResilienceCurve, 0, len(modes))
	}
	curves := make([]ResilienceCurve, 0, len(modes))
	for _, mode := range modes {
		curve := ResilienceCurve{Mode: mode, Lanes: treeLanes(spec, mode, params)}
		var oc *obs.FaultResilienceCurve
		if fr != nil {
			oc = &obs.FaultResilienceCurve{Routing: mode.String(), Lanes: curve.Lanes}
			fr.Curves = append(fr.Curves, oc)
		}
		for _, count := range cfg.Counts {
			p := params
			p.RepairDelay = cfg.RepairDelay
			p.Plan = killPlan(edges[:count], cfg.KillCycle, cfg.MTBF, cfg.Repair)
			if oc != nil {
				p.Metrics = &obs.SimRun{}
				oc.Points = append(oc.Points, &obs.FaultResiliencePoint{Failures: count, Sim: p.Metrics})
			}
			res, err := sim.RunPoint(context.Background(), spec, mode, cfg.Pattern, cfg.Load, p)
			if err != nil {
				return nil, fmt.Errorf("faults: %s with %d failures: %w", mode, count, err)
			}
			curve.Points = append(curve.Points, ResiliencePoint{Failures: count, Result: res})
		}
		curves = append(curves, curve)
	}
	return curves, nil
}

// killPlan scripts the failure (and repair) of the given links: all at
// cycle `at` when mtbf is 0, else mtbf cycles apart starting there.
func killPlan(edges [][2]int, at, mtbf, repair int64) *sim.Plan {
	if len(edges) == 0 {
		return nil
	}
	plan := &sim.Plan{Events: make([]sim.FaultEvent, 0, 2*len(edges))}
	for i, e := range edges {
		down := at + int64(i)*mtbf
		plan.Events = append(plan.Events, sim.FaultEvent{Cycle: down, Kind: sim.LinkDown, U: e[0], V: e[1]})
		if repair > 0 {
			plan.Events = append(plan.Events, sim.FaultEvent{Cycle: down + repair, Kind: sim.LinkUp, U: e[0], V: e[1]})
		}
	}
	return plan
}

// treeLanes reports how many spanning-tree lanes a multipath mode will
// actually get on this spec (the extractor may find fewer than asked).
func treeLanes(spec *sim.Spec, mode sim.RoutingMode, params sim.Params) int {
	if !mode.Multipath() {
		return 0
	}
	mp, err := specLanes(spec, params)
	if err != nil {
		return 0
	}
	return mp.TreeLanes()
}

// specLanes builds the spec's multipath lane structure (the same trees
// the engine will extract: the extraction seed is fixed per spec).
func specLanes(spec *sim.Spec, params sim.Params) (*route.MultiPath, error) {
	r, err := spec.Routing(sim.MPMINMode, params)
	if err != nil {
		return nil, err
	}
	return r.(*sim.MultiPathRouting).MP, nil
}

// laneTargetPool builds the TargetLanes killable-link pool: the tree
// edges of the first `lanes` multipath lanes, shuffled within each lane
// and interleaved round-robin — killing any prefix wounds the targeted
// lanes evenly.
func laneTargetPool(spec *sim.Spec, lanes int, params sim.Params, rng *rand.Rand) ([][2]int, error) {
	mp, err := specLanes(spec, params)
	if err != nil {
		return nil, fmt.Errorf("faults: -target-lanes needs multipath lanes: %w", err)
	}
	if lanes > mp.TreeLanes() {
		return nil, fmt.Errorf("faults: cannot target %d lanes, spec has %d", lanes, mp.TreeLanes())
	}
	perLane := make([][][2]int, lanes)
	most := 0
	for l := 0; l < lanes; l++ {
		le := append([][2]int(nil), mp.TreeEdges(l)...)
		rng.Shuffle(len(le), func(i, j int) { le[i], le[j] = le[j], le[i] })
		perLane[l] = le
		if len(le) > most {
			most = len(le)
		}
	}
	var pool [][2]int
	for i := 0; i < most; i++ {
		for l := 0; l < lanes; l++ {
			if i < len(perLane[l]) {
				pool = append(pool, perLane[l][i])
			}
		}
	}
	return pool, nil
}
