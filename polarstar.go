// Package polarstar is a from-scratch Go implementation of the PolarStar
// diameter-3 network topology family (Lakhotia et al., SPAA 2024) and of
// the full evaluation environment of the paper: factor-graph algebra over
// finite fields, the star product, every baseline topology, analytic
// minpath routing, a cycle-level interconnect simulator, a flow-level
// motif simulator, a multilevel graph bisector, and fault-injection
// analysis.
//
// This root package is the curated public API: it re-exports the entry
// points the runnable programs under examples/ use. Typical use:
//
//	ps, err := polarstar.New(11, 3, polarstar.IQ) // 1064 routers, radix 15
//	router := polarstar.NewMinRouter(ps)          // §9.2 analytic minpaths
//	path := polarstar.Route(router, 0, 999, nil)
//
// The experiment reproduction tools under cmd/ use the internal packages
// directly.
package polarstar

import (
	"math/rand"

	"polarstar/internal/faults"
	"polarstar/internal/flowsim"
	"polarstar/internal/graph"
	"polarstar/internal/moore"
	"polarstar/internal/motifs"
	"polarstar/internal/route"
	"polarstar/internal/sim"
	"polarstar/internal/topo"
)

// Graph is an immutable undirected graph with self-loop annotations (the
// common substrate of every topology here).
type Graph = graph.Graph

// ---------------------------------------------------------------------
// Topologies.

// PolarStar is the paper's topology: the star product of an Erdős–Rényi
// polarity graph with an Inductive-Quad or Paley supernode; diameter ≤ 3.
type PolarStar = topo.PolarStar

// SupernodeKind selects the supernode family.
type SupernodeKind = topo.SupernodeKind

// IQ is the Inductive-Quad supernode (order 2d'+2, Property R*) — the
// paper's main contribution for the supernode side.
const IQ = topo.KindIQ

// New constructs PolarStar(q, d') with the given supernode kind. The
// network radix is (q+1) + d' and the order (q²+q+1) × supernode order.
func New(q, dPrime int, kind SupernodeKind) (*PolarStar, error) {
	return topo.NewPolarStar(q, dPrime, kind)
}

// MustNew is New but panics on error.
func MustNew(q, dPrime int, kind SupernodeKind) *PolarStar {
	return topo.MustNewPolarStar(q, dPrime, kind)
}

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
// Simulation (§9, §10) and structural analysis (§11).

// RoutingMode selects MIN or UGAL for Sweep.
type RoutingMode = sim.RoutingMode

// Routing modes for Sweep.
const (
	// MINRouting selects minimal routing.
	MINRouting = sim.MIN
	// UGALRouting selects load-balancing adaptive routing.
	UGALRouting = sim.UGALMode
)

// Simulation and fault-analysis entry points.
var (
	// NewSpec builds a named topology spec ("ps-iq", "bf", "df", ...;
	// see sim.Table3Names). Append "-small" for scaled-down variants.
	NewSpec = sim.NewSpec
	// DefaultSimParams mirrors the §9.4 configuration.
	DefaultSimParams = sim.DefaultParams
	// Sweep runs a latency-load experiment; invalid parameters come
	// back as an error, never a panic.
	Sweep = sim.Sweep
	// NewFlowNetwork builds the §10 flow-level simulator.
	NewFlowNetwork = flowsim.New
	// DefaultFlowParams mirrors the §10.1 configuration.
	DefaultFlowParams = flowsim.DefaultParams
	// RunAllreduce simulates the Allreduce motif.
	RunAllreduce = motifs.Allreduce
	// FaultMedianTrial reproduces the §11.2 100-trial median protocol.
	FaultMedianTrial = faults.MedianTrial
)
