// Package polarstar is a from-scratch Go implementation of the PolarStar
// diameter-3 network topology family (Lakhotia et al., SPAA 2024) and of
// the full evaluation environment of the paper: factor-graph algebra over
// finite fields, the star product, every baseline topology, analytic
// minpath routing, a cycle-level interconnect simulator, a flow-level
// motif simulator, a multilevel graph bisector, and fault-injection
// analysis.
//
// This root package is the curated public API: it re-exports the stable
// entry points of the internal packages. Typical use:
//
//	ps, err := polarstar.New(11, 3, polarstar.IQ) // 1064 routers, radix 15
//	router := polarstar.NewMinRouter(ps)          // §9.2 analytic minpaths
//	path := polarstar.Route(router, 0, 999, nil)
//
// See the runnable programs under examples/ and the experiment
// reproduction tools under cmd/.
package polarstar

import (
	"math/rand"

	"polarstar/internal/analysis"
	"polarstar/internal/faults"
	"polarstar/internal/flowsim"
	"polarstar/internal/graph"
	"polarstar/internal/moore"
	"polarstar/internal/motifs"
	"polarstar/internal/partition"
	"polarstar/internal/route"
	"polarstar/internal/sim"
	"polarstar/internal/topo"
	"polarstar/internal/traffic"
)

// Graph is an immutable undirected graph with self-loop annotations (the
// common substrate of every topology here).
type Graph = graph.Graph

// NewGraphBuilder starts building a Graph on n vertices.
func NewGraphBuilder(name string, n int) *graph.Builder { return graph.NewBuilder(name, n) }

// PathStats aggregates all-pairs shortest-path structure (diameter,
// average path length, connectivity).
type PathStats = graph.PathStats

// BitBFSScratch is the reusable arena of the bit-parallel multi-source
// BFS engine. Callers running structural analysis over many graphs (a
// design-space sweep, a fault sweep) keep one per worker and pass it to
// Graph.AllPairsStatsSerial to amortize all traversal state.
type BitBFSScratch = graph.BitBFSScratch

// ---------------------------------------------------------------------
// Topologies.

// PolarStar is the paper's topology: the star product of an Erdős–Rényi
// polarity graph with an Inductive-Quad or Paley supernode; diameter ≤ 3.
type PolarStar = topo.PolarStar

// SupernodeKind selects the supernode family.
type SupernodeKind = topo.SupernodeKind

// Supernode kinds.
const (
	// IQ is the Inductive-Quad supernode (order 2d'+2, Property R*) —
	// the paper's main contribution for the supernode side.
	IQ = topo.KindIQ
	// Paley is the Paley-graph supernode (order 2d'+1, Property R1).
	Paley = topo.KindPaley
	// BDF is the Bermond–Delorme–Farhi-style supernode (order 2d').
	BDF = topo.KindBDF
)

// New constructs PolarStar(q, d') with the given supernode kind. The
// network radix is (q+1) + d' and the order (q²+q+1) × supernode order.
func New(q, dPrime int, kind SupernodeKind) (*PolarStar, error) {
	return topo.NewPolarStar(q, dPrime, kind)
}

// MustNew is New but panics on error.
func MustNew(q, dPrime int, kind SupernodeKind) *PolarStar {
	return topo.MustNewPolarStar(q, dPrime, kind)
}

// Order returns the PolarStar order for the parameters without building
// the graph (0 when infeasible).
func Order(q, dPrime int, kind SupernodeKind) int { return topo.PolarStarOrder(q, dPrime, kind) }

// ER is the Erdős–Rényi polarity graph ER_q (structure graph, diameter 2,
// Property R).
type ER = topo.ER

// NewER constructs ER_q for a prime power q.
func NewER(q int) (*ER, error) { return topo.NewER(q) }

// Supernode bundles a supernode graph with its star-product bijection.
type Supernode = topo.Supernode

// NewSupernode constructs a supernode of the given kind and degree.
func NewSupernode(kind SupernodeKind, degree int) (*Supernode, error) {
	return topo.NewSupernode(kind, degree)
}

// Baseline topologies (§9.1).
type (
	// Bundlefly is the MMS × Paley star-product baseline (Lei et al.).
	Bundlefly = topo.Bundlefly
	// Dragonfly is the canonical maximum Dragonfly (Kim et al.).
	Dragonfly = topo.Dragonfly
	// HyperX is the all-to-all generalized hypercube (Ahn et al.).
	HyperX = topo.HyperX
	// FatTree is the 3-level folded Clos.
	FatTree = topo.FatTree
	// Megafly is the indirect two-level Dragonfly+ baseline.
	Megafly = topo.Megafly
	// MMS is the McKay–Miller–Širáň (SlimFly) diameter-2 graph.
	MMS = topo.MMS
	// Kautz is the (bidirectional) Kautz graph.
	Kautz = topo.Kautz
	// LPS is the Lubotzky–Phillips–Sarnak Ramanujan graph (Spectralfly).
	LPS = topo.LPS
)

// Baseline constructors.
var (
	NewBundlefly = topo.NewBundlefly
	NewDragonfly = topo.NewDragonfly
	NewHyperX    = topo.NewHyperX
	NewFatTree   = topo.NewFatTree
	NewMegafly   = topo.NewMegafly
	NewMMS       = topo.NewMMS
	NewKautz     = topo.NewKautz
	NewLPS       = topo.NewLPS
	NewJellyfish = topo.NewJellyfish
)

// Property checkers (§5.1).
var (
	// HasPropertyR checks the structure-graph walk property.
	HasPropertyR = topo.HasPropertyR
	// HasPropertyRStar checks the involution supernode property.
	HasPropertyRStar = topo.HasPropertyRStar
)

// ---------------------------------------------------------------------
// Routing.

// Router computes router-level paths through a topology.
type Router = route.Engine

// Route returns r's path from src to dst as a vertex sequence including
// both endpoints (nil for src == dst or unreachable pairs). Routers with
// path diversity use rng to sample among minimal paths; deterministic
// routers ignore it. Hot loops call r.AppendPath on a reused buffer.
func Route(r Router, src, dst int, rng *rand.Rand) []int { return route.Path(r, src, dst, rng) }

// NewMinRouter builds the §9.2 analytic minimal-path router for a
// PolarStar instance. Its state is O(q² + d'²): no product-wide tables.
func NewMinRouter(ps *PolarStar) Router { return route.NewPolarStar(ps) }

// ValidPath reports whether path is a valid walk in g.
func ValidPath(g *Graph, path []int) bool { return route.PathValid(g, path) }

// RandomSource returns a deterministic rand.Rand for routing calls.
func RandomSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ---------------------------------------------------------------------
// Scale analysis (§7, Figs 1/4/7).

// DesignPoint is the largest order of a topology family at one radix.
type DesignPoint = moore.Point

// Scale analysis entry points.
var (
	// MooreBound is the degree/diameter Moore bound.
	MooreBound = moore.Bound
	// BestPolarStar returns the largest PolarStar at a radix.
	BestPolarStar = moore.BestPolarStar
	// BestBundlefly returns the largest Bundlefly at a radix.
	BestBundlefly = moore.BestBundlefly
	// BestDragonfly returns the largest Dragonfly at a radix.
	BestDragonfly = moore.BestDragonfly
	// BestHyperX3D returns the largest 3-D HyperX at a radix.
	BestHyperX3D = moore.BestHyperX3D
	// PolarStarConfigs enumerates all feasible configurations at a radix.
	PolarStarConfigs = moore.PolarStarConfigs
	// Headline computes the §1.3 geometric-mean scale ratios.
	Headline = moore.Headline
)

// ---------------------------------------------------------------------
// Simulation (§9, §10).

// Simulation types.
type (
	// SimParams configures the cycle-level simulator.
	SimParams = sim.Params
	// SimResult is one simulated load point.
	SimResult = sim.Result
	// Spec bundles a topology with routing and endpoint arrangement.
	Spec = sim.Spec
	// SweepResult is a latency-load curve.
	SweepResult = sim.SweepResult
	// TrafficPattern maps source endpoints to destinations.
	TrafficPattern = traffic.Pattern
	// FlowNetwork is the message-level simulator used for motifs.
	FlowNetwork = flowsim.Network
)

// Simulation entry points.
var (
	// NewSpec builds a named topology spec ("ps-iq", "bf", "df", ...;
	// see sim.Table3Names). Append "-small" for scaled-down variants.
	NewSpec = sim.NewSpec
	// KnownSpec reports whether a spec name is constructible, without
	// building it.
	KnownSpec = sim.KnownSpec
	// SpecNames lists every constructible spec name, sorted.
	SpecNames = sim.SpecNames
	// RunSimPoint evaluates one (spec, routing, pattern, load) point
	// with cooperative cancellation. Every invalid input — including the
	// parameter combinations the engine constructor rejects by panicking
	// — comes back as an error, making this (and Sweep, which runs on
	// it) safe for untrusted callers.
	RunSimPoint = sim.RunPoint
	// DefaultSimParams mirrors the §9.4 configuration.
	DefaultSimParams = sim.DefaultParams
	// Sweep runs a latency-load experiment.
	Sweep = sim.Sweep
	// NewFlowNetwork builds the §10 flow-level simulator.
	NewFlowNetwork = flowsim.New
	// DefaultFlowParams mirrors the §10.1 configuration.
	DefaultFlowParams = flowsim.DefaultParams
	// RunAllreduce simulates the Allreduce motif.
	RunAllreduce = motifs.Allreduce
)

// RoutingMode selects MIN or UGAL for Sweep.
type RoutingMode = sim.RoutingMode

// Routing modes for Sweep.
const (
	// MINRouting selects minimal routing.
	MINRouting = sim.MIN
	// UGALRouting selects load-balancing adaptive routing.
	UGALRouting = sim.UGALMode
	// MPMINRouting selects multipath routing over MIN: the minimal-path
	// lane plus SimParams.Lanes edge-disjoint spanning-tree lanes with
	// occupancy-aware spray and live-fault lane failover.
	MPMINRouting = sim.MPMINMode
	// MPUGALRouting selects multipath routing over UGAL-L.
	MPUGALRouting = sim.MPUGALMode
)

// ---------------------------------------------------------------------
// Structural analysis (§11).

// Structural analysis entry points.
var (
	// Bisect estimates the minimum bisection (METIS substitute).
	Bisect = partition.Bisect
	// FaultTrial runs one random link-failure scenario.
	FaultTrial = faults.RunTrial
	// FaultMedianTrial reproduces the §11.2 100-trial median protocol.
	FaultMedianTrial = faults.MedianTrial
)

// BisectOptions tunes the bisector.
type BisectOptions = partition.Options

// FaultCurve is one link-failure scenario's measurements.
type FaultCurve = faults.Trial

// FaultBands aggregates many failure scenarios into quartile curves.
type FaultBands = faults.Bands

// RunFaultBands computes quartile resilience curves over many trials.
var RunFaultBands = faults.RunBands

// FaultTrafficPoint is one failure fraction of a degraded-traffic sweep.
type FaultTrafficPoint = faults.TrafficPoint

// FaultTrafficSweep simulates traffic on progressively degraded
// topologies (the dynamic complement of the structural §11.2 sweep).
func FaultTrafficSweep(spec *Spec, mode RoutingMode, pattern string, load float64, fracs []float64, params SimParams, seed int64) ([]FaultTrafficPoint, error) {
	return faults.TrafficSweep(spec, mode, pattern, load, fracs, params, seed, nil)
}

// ResilienceConfig parameterizes a live-fault resilience sweep: failure
// counts, the MTBF/MTTR schedule, the repair-stall model and the
// targeted-lane kill pool.
type ResilienceConfig = faults.ResilienceConfig

// ResilienceCurve is one routing mode's throughput-vs-failure-count
// curve from ResilienceSweep.
type ResilienceCurve = faults.ResilienceCurve

// ResiliencePoint is one (mode, failure count) simulation of a
// ResilienceCurve.
type ResiliencePoint = faults.ResiliencePoint

// ResilienceSweep compares routing modes (MultiPath lanes vs MIN vs
// UGAL) under identical scripted live-fault plans, quantifying how much
// throughput each sustains as the failure count grows.
var ResilienceSweep = faults.ResilienceSweep

// LiveFaultPlan scripts link/router failures (and repairs) that the
// cycle-level simulator injects mid-run; assign one to SimParams.Plan.
type LiveFaultPlan = sim.Plan

// LiveFaultEvent is one scripted topology change in a LiveFaultPlan.
type LiveFaultEvent = sim.FaultEvent

// FaultRetryPolicy bounds source retries for packets that hit live
// faults; the zero value selects the simulator's standard retry bound.
type FaultRetryPolicy = sim.RetryPolicy

// ---------------------------------------------------------------------
// Path diversity and in-network collectives (extensions).

// EdgeDisjointPaths returns a maximum set of edge-disjoint router paths
// (unit-capacity max flow), bounding per-pair fault tolerance.
var EdgeDisjointPaths = route.EdgeDisjointPaths

// EdgeConnectivity estimates the network's edge connectivity (sample <= 0
// checks every vertex pair with vertex 0: exact by Menger's theorem).
func EdgeConnectivity(g *Graph, sample int) int { return route.EdgeConnectivityLB(g, sample) }

// SpanningTree is a rooted spanning tree (for in-network collectives).
type SpanningTree = route.SpanningTree

// EdgeDisjointSpanningTrees greedily extracts edge-disjoint spanning
// trees (the Dawkins et al. companion-work construction for in-network
// allreduce).
var EdgeDisjointSpanningTrees = route.EdgeDisjointSpanningTrees

// MultiPath composes a minimal-path engine with k edge-disjoint
// spanning-tree lanes: load-balanced parallel paths in a healthy
// network, independent failover lanes under faults (DESIGN.md §13).
type MultiPath = route.MultiPath

// NewMultiPath extracts up to `lanes` edge-disjoint tree lanes over g
// around the given minimal engine; hopCap bounds tree-path length in
// nodes (0: uncapped).
var NewMultiPath = route.NewMultiPath

// TreeEscape routes over edge-disjoint spanning trees as a last-resort
// escape path for live-fault recovery.
type TreeEscape = route.TreeEscape

// NewTreeEscape extracts up to maxTrees edge-disjoint spanning trees
// over g for escape routing.
var NewTreeEscape = route.NewTreeEscape

// Collective-algorithm variants on the flow-level simulator.
var (
	// RunAllreduceRing is the bandwidth-optimal ring allreduce.
	RunAllreduceRing = motifs.AllreduceRing
	// RunTreeAllreduce reduces over k edge-disjoint spanning trees.
	RunTreeAllreduce = motifs.TreeAllreduce
)

// ---------------------------------------------------------------------
// Analytical link-load bounds (extensions).

// LinkLoads is a per-link load distribution with its saturation bound.
type LinkLoads = analysis.LinkLoads

// ComputeLinkLoads estimates per-link loads and the bottleneck
// saturation bound for a routing engine under a traffic pattern, without
// simulation.
var ComputeLinkLoads = analysis.ComputeLinkLoads
