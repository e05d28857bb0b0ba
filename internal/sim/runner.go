package sim

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"polarstar/internal/obs"
)

// RoutingMode selects the routing algorithm of a run.
type RoutingMode int

const (
	// MIN is minimal routing (§9.3).
	MIN RoutingMode = iota
	// UGALMode is load-balancing adaptive routing with local congestion
	// information, UGAL-L (§9.3).
	UGALMode
	// UGALGMode is the idealized global-information UGAL-G variant
	// (ablation only).
	UGALGMode
	// MPMINMode is multipath routing over MIN: the minimal-path lane
	// plus Params.Lanes spanning-tree lanes with occupancy-aware spray
	// and live-fault lane failover.
	MPMINMode
	// MPUGALMode is multipath routing over UGAL-L.
	MPUGALMode
)

// routingModes is the one definition of the routing vocabulary, indexed
// by RoutingMode: every front end (pssim -routing, psfaults -mode and
// -rmodes, the psserve "routing" field) parses names through
// ParseRoutingMode, and every engine gets its adapter from Spec.Routing.
var routingModes = [...]struct {
	name      string // wire name: flag values and the psserve request field
	label     string // String(): table headers, chart legends, obs artifacts
	multipath bool   // base rides lane 0 of a MultiPathRouting (Params.Lanes tree lanes)
	base      func(s *Spec, pktFlits int) Routing
}{
	MIN:        {"min", "MIN", false, minBase},
	UGALMode:   {"ugal", "UGAL", false, (*Spec).UGALRouting},
	UGALGMode:  {"ugal-g", "UGAL-G", false, ugalGBase},
	MPMINMode:  {"mp-min", "MP-MIN", true, minBase},
	MPUGALMode: {"mp-ugal", "MP-UGAL", true, (*Spec).UGALRouting},
}

func minBase(s *Spec, _ int) Routing { return s.MinRouting() }

// ugalGBase is UGAL scoring candidates by the maximum queue along the
// whole path (not a paper configuration).
func ugalGBase(s *Spec, pktFlits int) Routing {
	u := s.UGALRouting(pktFlits).(*UGAL)
	u.Global = true
	return u
}

func (m RoutingMode) valid() bool { return m >= 0 && int(m) < len(routingModes) }

func (m RoutingMode) String() string {
	if !m.valid() {
		return fmt.Sprintf("RoutingMode(%d)", int(m))
	}
	return routingModes[m].label
}

// Multipath reports whether the mode sprays over spanning-tree lanes
// (and therefore reads Params.Lanes).
func (m RoutingMode) Multipath() bool { return m.valid() && routingModes[m].multipath }

// RoutingModeNames lists the wire names ParseRoutingMode accepts, in
// mode order.
func RoutingModeNames() []string {
	names := make([]string, len(routingModes))
	for i, r := range routingModes {
		names[i] = r.name
	}
	return names
}

// ParseRoutingMode maps a wire name ("min", "ugal", ...) to its mode.
func ParseRoutingMode(name string) (RoutingMode, error) {
	for i, r := range routingModes {
		if r.name == name {
			return RoutingMode(i), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown routing %q (want %s)", name, strings.Join(RoutingModeNames(), "|"))
}

// SweepResult is a latency-load curve for one (topology, routing,
// pattern) combination.
type SweepResult struct {
	Spec    string
	Routing RoutingMode
	Pattern string
	Points  []Result
}

// SaturationLoad returns the highest offered load that remained stable,
// or 0 when every point saturated.
func (s SweepResult) SaturationLoad() float64 {
	best := 0.0
	for _, p := range s.Points {
		if !p.Saturated && p.Load > best {
			best = p.Load
		}
	}
	return best
}

// Sweep runs the latency-load experiment: one independent simulation per
// offered load, in parallel across load points, each run itself sharded
// over params.Workers goroutines (0: divide the machine between the
// levels — GOMAXPROCS/outer inner workers each). Loads are fractions of
// the peak injection bandwidth (flits/endpoint/cycle). The first
// failure cancels the remaining load points and is returned once every
// in-flight run has stopped.
func Sweep(spec *Spec, mode RoutingMode, patternName string, loads []float64, params Params) (SweepResult, error) {
	return SweepObs(spec, mode, patternName, loads, params, nil)
}

// SweepObs is Sweep with telemetry: when sm is non-nil, each load point's
// engine fills sm.Points[i] (sm must come from obs.NewSimSweep with one
// point per load). Points are written by the worker that owns the load
// index, so collection adds no synchronization; the resulting artifact is
// identical for any worker split. (Both names stay: bench/ calls Sweep.)
func SweepObs(spec *Spec, mode RoutingMode, patternName string, loads []float64, params Params, sm *obs.SimSweep) (SweepResult, error) {
	res := SweepResult{Spec: spec.Name, Routing: mode, Pattern: patternName, Points: make([]Result, len(loads))}
	outer := runtime.GOMAXPROCS(0)
	if outer > len(loads) {
		outer = len(loads)
	}
	if params.Workers <= 0 {
		if params.Workers = runtime.GOMAXPROCS(0) / outer; params.Workers < 1 {
			params.Workers = 1
		}
	}
	var (
		firstErr error
		mu       sync.Mutex
		failed   = make(chan struct{})
		failOnce sync.Once
	)
	fail := func(err error) {
		failOnce.Do(func() {
			mu.Lock()
			firstErr = err
			mu.Unlock()
			close(failed)
		})
	}
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		// Stop feeding on the first failure so workers drain and exit;
		// without the select this goroutine would block on `next <- i`
		// forever once the workers are gone.
		defer close(next)
		for i := range loads {
			select {
			case next <- i:
			case <-failed:
				return
			}
		}
	}()
	for w := 0; w < outer; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				p := params
				p.Seed = params.Seed + int64(i)*7919
				if sm != nil {
					p.Metrics = sm.Points[i]
				}
				point, err := RunPoint(context.Background(), spec, mode, patternName, loads[i], p)
				if err != nil {
					fail(err)
					return
				}
				res.Points[i] = point
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return res, firstErr
}

// ValidLoad reports whether an offered load, in flits per endpoint per
// cycle, lies in (0, 1]. It is written as the conjunction of the
// passing comparisons, so NaN, for which every comparison is false,
// fails it.
func ValidLoad(load float64) bool { return load > 0 && load <= 1 }

// RunPoint evaluates one (spec, routing, pattern, load) point: it
// validates the parameters, builds the pattern, checks reachability,
// constructs an engine and runs it under ctx. Every failure mode —
// including the calendar-overflow conditions NewEngine panics on — comes
// back as an error, which makes this the entry point for untrusted
// callers (the facade and the serving layer). Workers <= 0 defaults to
// GOMAXPROCS. The Result is bit-identical for any worker count and any
// non-cancelling context.
func RunPoint(ctx context.Context, spec *Spec, mode RoutingMode, patternName string, load float64, params Params) (Result, error) {
	if !ValidLoad(load) {
		return Result{}, fmt.Errorf("sim: offered load must be in (0, 1], got %g", load)
	}
	cfg := spec.Config()
	if err := params.Validate(cfg); err != nil {
		return Result{}, err
	}
	if err := CheckDegree(spec.Graph); err != nil {
		return Result{}, err
	}
	if params.Workers <= 0 {
		params.Workers = runtime.GOMAXPROCS(0)
	}
	if params.Plan != nil {
		if err := params.Plan.Validate(spec.Graph); err != nil {
			return Result{}, err
		}
	}
	pattern, err := spec.Pattern(patternName, params.Seed)
	if err != nil {
		return Result{}, err
	}
	// Scripted faults may sever pairs on purpose; only healthy runs
	// require every addressed pair to be reachable.
	if params.Plan.Empty() {
		if err := CheckReachable(spec.Graph, cfg, pattern); err != nil {
			return Result{}, err
		}
	}
	routing, err := spec.Routing(mode, params)
	if err != nil {
		return Result{}, err
	}
	eng := NewEngine(params, spec.Graph, cfg, routing, pattern)
	return eng.RunContext(ctx, load)
}

// WriteSweep renders a sweep as an aligned text table.
func WriteSweep(w io.Writer, s SweepResult) {
	fmt.Fprintf(w, "# %s %s %s\n", s.Spec, s.Routing, s.Pattern)
	fmt.Fprintf(w, "%-8s %-12s %-12s %-10s %-10s\n", "load", "avg-lat", "throughput", "delivered", "saturated")
	for _, p := range s.Points {
		fmt.Fprintf(w, "%-8.3f %-12.2f %-12.4f %-10.3f %-10v\n",
			p.Load, p.AvgLatency, p.Throughput, p.DeliveredFrac, p.Saturated)
	}
}

// DefaultLoads is the standard offered-load ladder of the latency-load
// figures.
var DefaultLoads = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
