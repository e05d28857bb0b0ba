package obs

// This file defines the typed payload sections the instrumented layers
// fill in: internal/sim (SimRun/SimSweep), internal/flowsim (FlowRun) and
// internal/faults (FaultSweep/FaultTraffic). obs deliberately depends on
// none of them — the simulators import obs, never the reverse — so the
// sections hold only scalar aggregates and the metric primitives above.

// IntervalRow is one `-metrics-interval` sample of a simulation run:
// cumulative counters at the end of the given cycle. Rows are recorded in
// the serial commit phase, so they are identical for any worker count.
type IntervalRow struct {
	Cycle     int64 `json:"cycle"`
	Generated int64 `json:"generated"`
	Injected  int64 `json:"injected"`
	Delivered int64 `json:"delivered"`
	Stalled   int64 `json:"stalled"`
}

// SimRun is the metric set of one cycle-simulator run (one offered-load
// point). The engine sizes the slices in NewEngine and fills everything
// by merging per-shard accumulators in fixed shard order at the end of
// Run; callers pass a zero SimRun via sim.Params.Metrics.
type SimRun struct {
	Load float64 `json:"load"`

	// Packet counters over the whole run (warmup+measure+drain).
	Generated Counter `json:"generated"` // packets produced by the traffic pattern
	Injected  Counter `json:"injected"`  // packets routed and enqueued at their source
	Lost      Counter `json:"lost"`      // unroutable or over-budget paths (degraded topologies)
	Delivered Counter `json:"delivered"` // packets ejected at their destination

	// Arbitration stall counters: failed forward attempts by cause.
	StallInject   Counter `json:"stall_inject"`        // source endpoint still serializing a previous packet
	StallEject    Counter `json:"stall_eject"`         // destination ejection channel busy
	StallChannel  Counter `json:"stall_channel"`       // output channel busy this cycle
	StallCredit   Counter `json:"stall_credit"`        // no eligible VC with downstream credits
	CreditStallVC []int64 `json:"credit_stall_per_vc"` // credit stalls keyed by the packet's lowest eligible VC

	// Latency is the end-to-end latency histogram (cycles) of measured
	// delivered packets; p50/p95/p99 come out in its JSON form.
	Latency Histogram `json:"latency_cycles"`

	// OccHWM is the peak queued+reserved flits per directed channel.
	OccHWM ChannelHWM `json:"channel_occupancy_hwm"`

	// Results echoed from sim.Result so the artifact stands alone.
	AvgLatency    float64 `json:"avg_latency"`
	Throughput    float64 `json:"throughput"`
	DeliveredFrac float64 `json:"delivered_frac"`
	Saturated     bool    `json:"saturated"`

	// Interval series ([]IntervalRow presized by the engine; empty when
	// -metrics-interval is 0).
	Interval int           `json:"interval,omitempty"`
	Series   []IntervalRow `json:"series,omitempty"`

	// Faults is the live fault-injection accounting, present only when
	// the run carried an active fault plan (sim.Params.Plan). A pointer
	// with omitempty so artifacts of healthy runs are byte-identical to
	// the pre-fault schema.
	Faults *SimFaults `json:"faults,omitempty"`

	// Lanes is the per-lane accounting of a multipath-routed run, present
	// only when the routing sprays over spanning-tree lanes. Same
	// pointer+omitempty contract as Faults.
	Lanes *SimLanes `json:"lanes,omitempty"`
}

// SimLanes is the per-lane accounting of one multipath-routed run: how
// traffic spread over the minimal-path lane (index 0) and the k
// spanning-tree lanes (1..k), and how the lane-health machinery reacted
// to faults. Slices are indexed by lane, length k+1.
type SimLanes struct {
	Lanes     int     `json:"lanes"`     // tree lanes k (excluding the minimal lane)
	Chosen    []int64 `json:"chosen"`    // packets routed onto the lane at injection
	Delivered []int64 `json:"delivered"` // packets ejected that last rode the lane
	Failovers []int64 `json:"failovers"` // in-flight reroutes ONTO the lane (dead channel ahead)
	Demoted   int64   `json:"demoted"`   // lane demotions (a tree edge died)
	Promoted  int64   `json:"promoted"`  // lanes returned to service after heal + re-probe
}

// SimFaults is the fault accounting of one live fault-injected
// simulation run: how much of the plan fired, what happened to the
// packets it hit, and whether the no-progress watchdog had to end the
// run early.
type SimFaults struct {
	PlanEvents      int64   `json:"plan_events"`             // events the plan scripts
	EventsApplied   int64   `json:"events_applied"`          // events whose cycle was reached
	DroppedInFlight Counter `json:"dropped_in_flight"`       // packets dropped on a dying link (credits reclaimed)
	Retries         Counter `json:"retries"`                 // source retries performed
	LostRetryBudget Counter `json:"lost_retry_budget"`       // packets that exhausted MaxRetries
	LostTimeout     Counter `json:"lost_timeout"`            // packets that exceeded the MaxAge limit
	LostStranded    Counter `json:"lost_stranded"`           // packets wedged when the watchdog fired
	TerminatedEarly bool    `json:"terminated_early"`        // the watchdog ended the run before the horizon
	TerminatedAt    int64   `json:"terminated_at,omitempty"` // cycle of early termination
}

// SimSweep is one latency-load sweep: a SimRun per offered-load point,
// in load order.
type SimSweep struct {
	Spec    string    `json:"spec"`
	Routing string    `json:"routing"`
	Pattern string    `json:"pattern"`
	Points  []*SimRun `json:"points"`
}

// NewSimSweep returns a sweep with one zero SimRun per load point, ready
// to hand to sim.SweepObs.
func NewSimSweep(spec, routing, pattern string, loads int) *SimSweep {
	s := &SimSweep{Spec: spec, Routing: routing, Pattern: pattern, Points: make([]*SimRun, loads)}
	for i := range s.Points {
		s.Points[i] = &SimRun{}
	}
	return s
}

// FlowRun is the metric set of one flow-level (flowsim) run. The network
// sizes LinkBusyNS once in Observe; Send updates are plain array adds.
type FlowRun struct {
	Topology string `json:"topology,omitempty"`
	Motif    string `json:"motif,omitempty"`
	Routing  string `json:"routing,omitempty"`

	Messages       Counter   `json:"messages"`
	Bytes          float64   `json:"bytes"`
	Hops           Histogram `json:"hops"`
	LastDeliveryNS float64   `json:"last_delivery_ns"`
	CompletionUS   float64   `json:"completion_us,omitempty"`

	// LinkBusyNS accumulates serialization time per directed channel; its
	// JSON form is the per-link utilization histogram (busy / makespan).
	LinkBusyNS UtilVector `json:"link_utilization"`
	InjBusyNS  float64    `json:"inj_busy_ns"`
	EjBusyNS   float64    `json:"ej_busy_ns"`
}

// UtilVector is a per-link busy-time vector whose JSON form is a
// utilization histogram: each link's busy share of the owner FlowRun's
// makespan, bucketed into 5% bins. The span is set by Finish.
type UtilVector struct {
	BusyNS []float64 `json:"-"`
	SpanNS float64   `json:"-"`
}

// Add accumulates busy nanoseconds on channel c.
func (u *UtilVector) Add(c int, ns float64) { u.BusyNS[c] += ns }

// MarshalJSON renders {"span_ns":…,"max":…,"mean":…,"bins":[20 counts]}
// where bins[i] counts links with utilization in [i/20, (i+1)/20).
func (u UtilVector) MarshalJSON() ([]byte, error) {
	var bins [20]int
	var max, sum float64
	if u.SpanNS > 0 {
		for _, busy := range u.BusyNS {
			util := busy / u.SpanNS
			if util > max {
				max = util
			}
			sum += util
			i := int(util * 20)
			if i >= len(bins) {
				i = len(bins) - 1
			}
			if i < 0 {
				i = 0
			}
			bins[i]++
		}
	}
	mean := 0.0
	if len(u.BusyNS) > 0 {
		mean = sum / float64(len(u.BusyNS))
	}
	out := struct {
		SpanNS float64 `json:"span_ns"`
		Links  int     `json:"links"`
		Max    float64 `json:"max"`
		Mean   float64 `json:"mean"`
		Bins   [20]int `json:"bins"`
	}{u.SpanNS, len(u.BusyNS), max, mean, bins}
	return marshalJSON(out)
}

// FaultTrial is the per-trial record of a structural fault sweep.
type FaultTrial struct {
	Seed               int64   `json:"seed"`
	DisconnectionRatio float64 `json:"disconnection_ratio"`
	PointsConnected    int     `json:"points_connected,omitempty"`
	PointsDisconnected int     `json:"points_disconnected,omitempty"`
	DegradedPoints     int     `json:"degraded_points,omitempty"` // sampled points with diameter above the intact graph
	MaxDiameter        int32   `json:"max_diameter,omitempty"`
	LostPairs          Counter `json:"lost_pairs,omitempty"` // unreachable host pairs summed over sampled points
}

// Sample folds one sampled failure fraction into the record: whether the
// hosts were still connected there, the degraded diameter against the
// intact one, and the unreachable host pairs. A nil receiver discards
// the sample, so sweeps call it whether or not telemetry is on.
func (t *FaultTrial) Sample(connected bool, diam, intactDiam int32, lost int64) {
	if t == nil {
		return
	}
	if connected {
		t.PointsConnected++
	} else {
		t.PointsDisconnected++
	}
	t.LostPairs.Add(lost)
	if diam > intactDiam {
		t.DegradedPoints++
	}
	if diam > t.MaxDiameter {
		t.MaxDiameter = diam
	}
}

// FaultSweep is the metric set of a §11.2 structural fault experiment:
// one FaultTrial per scenario (ranking pass) plus the fully sampled
// median trial.
type FaultSweep struct {
	Spec           string       `json:"spec,omitempty"`
	IntactDiameter int32        `json:"intact_diameter"`
	Trials         []FaultTrial `json:"trials,omitempty"`
	Median         *FaultTrial  `json:"median,omitempty"`
}

// FaultTrafficPoint is one failure fraction of a degraded-traffic sweep:
// the structural damage plus the full simulator metrics at that point.
type FaultTrafficPoint struct {
	FailFrac float64 `json:"fail_frac"`
	Removed  int     `json:"removed"`
	Sim      *SimRun `json:"sim"`
}

// FaultTraffic is the metric set of a faults.TrafficSweep run.
type FaultTraffic struct {
	Spec   string               `json:"spec,omitempty"`
	Load   float64              `json:"load"`
	Points []*FaultTrafficPoint `json:"points"`
}

// FaultResiliencePoint is one failure count of a resilience sweep: the
// number of links the plan kills plus the full simulator metrics.
type FaultResiliencePoint struct {
	Failures int     `json:"failures"`
	Sim      *SimRun `json:"sim"`
}

// FaultResilienceCurve is one routing mode's throughput/latency-vs-
// failure-count curve of a faults.ResilienceSweep run.
type FaultResilienceCurve struct {
	Routing string                  `json:"routing"`
	Lanes   int                     `json:"lanes,omitempty"` // tree lanes of a multipath mode
	Points  []*FaultResiliencePoint `json:"points"`
}

// FaultResilience is the metric set of a faults.ResilienceSweep run:
// every compared routing mode simulated under the same nested live
// fault plans at the same offered load.
type FaultResilience struct {
	Spec      string  `json:"spec,omitempty"`
	Pattern   string  `json:"pattern,omitempty"`
	Load      float64 `json:"load"`
	KillCycle int64   `json:"kill_cycle"`
	MTBF      int64   `json:"mtbf,omitempty"`
	Repair    int64   `json:"repair,omitempty"`
	// RepairDelay is the table-reconvergence stall in cycles imposed on
	// single-table repair after every fault event (0: instant).
	RepairDelay int64 `json:"repair_delay,omitempty"`
	// TargetLanes > 0 means the killed links were drawn from the first
	// TargetLanes multipath tree lanes instead of uniformly at random.
	TargetLanes int                     `json:"target_lanes,omitempty"`
	Curves      []*FaultResilienceCurve `json:"curves"`
}

// Figure is one figure of a psfig run; sim/fault figures attach their
// sweep metrics.
type Figure struct {
	Name   string        `json:"name"`
	Sims   []*SimSweep   `json:"sims,omitempty"`
	Faults []*FaultSweep `json:"faults,omitempty"`
}

// ServeStats is the counter snapshot of a psserve evaluation service:
// request admission, the two cache layers (finished-Result artifacts and
// resident built specs), and shedding. The service accumulates these
// atomically and snapshots them into this struct on demand, so the
// fields here are plain ints — obs stays synchronization-free.
type ServeStats struct {
	Requests    int64 `json:"requests"`     // eval requests admitted past decoding
	BadRequests int64 `json:"bad_requests"` // eval requests rejected with a 4xx
	CacheHits   int64 `json:"cache_hits"`   // evals answered from the artifact cache
	CacheMisses int64 `json:"cache_misses"` // evals that had to run
	Joined      int64 `json:"joined"`       // evals that joined an identical in-flight run
	Shed        int64 `json:"shed"`         // evals rejected 429 with a full queue
	Evictions   int64 `json:"evictions"`    // artifacts evicted by the LRU byte budget
	CachedRuns  int64 `json:"cached_runs"`  // artifacts currently resident
	CachedBytes int64 `json:"cached_bytes"` // artifact bytes currently resident

	Builds      int64 `json:"builds"`       // topologies constructed (cold spec requests)
	BuildHits   int64 `json:"build_hits"`   // requests served by an already-built spec
	BuildShared int64 `json:"build_shared"` // requests that waited on a concurrent build
	SpecsBuilt  int64 `json:"specs_built"`  // built specs currently resident
	SpecBytes   int64 `json:"spec_bytes"`   // routing-state bytes of resident specs
}

// SearchEpoch is one barrier point of a pssearch best-cost trajectory
// (mirrors search.EpochStat; obs stays dependency-free).
type SearchEpoch struct {
	Epoch    int     `json:"epoch"`
	BestCost int64   `json:"best_cost"`
	BestASPL float64 `json:"best_aspl"`
	Proposed int64   `json:"proposed"`
	Accepted int64   `json:"accepted"`
}

// SearchRun is the metric set of one cmd/pssearch invocation: the
// annealing telemetry (all deterministic), the best graph found with its
// optimality gap against the Moore-type ASPL lower bound, and — only
// when timing is enabled — the volatile throughput numbers.
type SearchRun struct {
	Graph     string `json:"graph"`
	N         int    `json:"n"`
	Degree    int    `json:"degree"`
	Seed      int64  `json:"seed"`
	Searchers int    `json:"searchers"`
	Epochs    int    `json:"epochs"`
	Iters     int    `json:"iters_per_epoch"`

	Proposed     Counter `json:"proposed"`
	Accepted     Counter `json:"accepted"`
	Invalid      Counter `json:"invalid"`
	Evals        Counter `json:"evals"`
	DirtyTotal   Counter `json:"dirty_total"`
	FullRebuilds Counter `json:"full_rebuilds"`
	Resyncs      Counter `json:"resyncs"`
	Drift        Counter `json:"drift"`
	DistsBytes   Counter `json:"dists_bytes"` // per-searcher probe-buffer high-water (max, not sum)

	AcceptRate float64 `json:"accept_rate"`
	AvgDirty   float64 `json:"avg_dirty"` // mean re-evaluated sources per applied swap

	BestCost     int64   `json:"best_cost"`
	BestASPL     float64 `json:"best_aspl"`
	BestDiameter int32   `json:"best_diameter"`
	Connected    bool    `json:"connected"`
	StartASPL    float64 `json:"start_aspl"`
	LowerBound   float64 `json:"aspl_lower_bound"`
	GapPct       float64 `json:"gap_pct"` // (best − bound)/bound·100

	Trajectory []SearchEpoch `json:"trajectory,omitempty"`

	// Volatile: populated only when the caller includes timing
	// (-metrics-timing), so artifacts stay byte-identical without it.
	SwapsPerSec float64    `json:"swaps_per_sec,omitempty"`
	EvalNS      *Histogram `json:"eval_ns,omitempty"`
}
