// Degraded-topology traffic simulation: the dynamic complement of the
// structural §11.2 sweep. Instead of asking how distances grow as links
// fail, TrafficSweep asks how much offered load the broken network still
// carries: each failure fraction rebuilds an all-pairs routing table on
// the degraded graph (reusing one distance slab across the whole sweep)
// and runs the cycle-level simulator on it.
package faults

import (
	"fmt"
	"math/rand"
	"runtime"

	"polarstar/internal/obs"
	"polarstar/internal/sim"
)

// TrafficPoint is one failure fraction of a degraded-traffic sweep.
type TrafficPoint struct {
	FailFrac float64
	Removed  int // links removed
	sim.Result
}

// TrafficSweep removes links of the spec's graph in a seed-determined
// random order (the §11.2 protocol) and simulates the same offered load
// on each degraded topology. Endpoints on disconnected or unroutable
// pairs keep injecting; their packets are lost, so DeliveredFrac < 1 and
// rising latency are the observable damage. fracs must be ascending.
// Every routing mode runs over the degraded all-pairs table; the
// multipath modes re-extract their tree lanes per point and fail the
// sweep once the damage disconnects the graph.
//
// When ft is non-nil, each failure fraction's engine fills a fresh
// SimRun attached to the corresponding FaultTrafficPoint, so the
// artifact carries the full latency/stall/loss breakdown of every
// degraded topology. Results are identical with ft on or off.
func TrafficSweep(spec *sim.Spec, mode sim.RoutingMode, patternName string, load float64, fracs []float64, params sim.Params, seed int64, ft *obs.FaultTraffic) ([]TrafficPoint, error) {
	if !sim.ValidLoad(load) {
		return nil, fmt.Errorf("faults: offered load %g outside (0, 1]", load)
	}
	if err := validate(spec.Graph, nil, fracs); err != nil {
		return nil, err
	}
	if err := params.Validate(spec.Config()); err != nil {
		return nil, err
	}
	if err := sim.CheckDegree(spec.Graph); err != nil {
		return nil, err
	}
	if params.Workers <= 0 {
		params.Workers = runtime.GOMAXPROCS(0)
	}
	edges := spec.Graph.Edges()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	if ft != nil {
		ft.Spec = spec.Name
		ft.Load = load
		ft.Points = make([]*obs.FaultTrafficPoint, 0, len(fracs))
	}
	points := make([]TrafficPoint, 0, len(fracs))
	var slab []uint8
	for _, f := range fracs {
		k := int(f * float64(len(edges)))
		deg := spec.DegradedInto(edges[:k], slab)
		slab = deg.TableSlab()
		p := params
		if ft != nil {
			p.Metrics = &obs.SimRun{}
			ft.Points = append(ft.Points, &obs.FaultTrafficPoint{FailFrac: f, Removed: k, Sim: p.Metrics})
		}
		pattern, err := deg.Pattern(patternName, p.Seed)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			// The intact point must be fully routable — an unreachable pair
			// there is a spec error, not link damage. Degraded points skip
			// the check on purpose: losing packets on severed pairs is the
			// measurement.
			if err := sim.CheckReachable(deg.Graph, deg.Config(), pattern); err != nil {
				return nil, err
			}
		}
		routing, err := deg.Routing(mode, p)
		if err != nil {
			return nil, err
		}
		eng := sim.NewEngine(p, deg.Graph, deg.Config(), routing, pattern)
		points = append(points, TrafficPoint{FailFrac: f, Removed: k, Result: eng.Run(load)})
	}
	return points, nil
}
