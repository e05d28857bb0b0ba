package sim

import (
	"fmt"
	"sync"

	"polarstar/internal/graph"
	"polarstar/internal/route"
	"polarstar/internal/topo"
	"polarstar/internal/traffic"
)

// Spec bundles everything the experiment harness needs to simulate one
// topology: the switch graph, endpoint arrangement, grouping, minimal
// routing engine and path-length bounds.
type Spec struct {
	Name      string
	Graph     *graph.Graph
	PerRouter int   // endpoints per hosting switch
	Hosts     []int // endpoint-hosting switches (nil: all)
	NumGroups int
	GroupOf   func(int) int
	MinEngine route.Engine
	MinHops   int   // max hops of a minimal path between hosts
	UGALMids  []int // Valiant intermediates (nil: all switches)

	// Multipath lane structures by requested lane count, built on first
	// use: they are a function of Graph and MinEngine alone, and runs
	// sharing the spec (a sweep's points, psserve requests) share them.
	lanesMu sync.Mutex
	lanes   map[int]*route.MultiPath
}

// Config returns the endpoint arrangement of the spec.
func (s *Spec) Config() traffic.Config {
	return traffic.Config{Routers: s.Graph.N(), PerRouter: s.PerRouter, Hosts: s.Hosts}
}

// Endpoints returns the endpoint count.
func (s *Spec) Endpoints() int { return s.Config().Endpoints() }

// Pattern builds a named traffic pattern for this spec.
func (s *Spec) Pattern(name string, seed int64) (traffic.Pattern, error) {
	return traffic.ByName(name, s.Config(), s.NumGroups, s.GroupOf, s.MinEngine.Dist, seed)
}

// MinRouting returns the §9.3 MIN routing adapter.
func (s *Spec) MinRouting() Routing {
	return Min{Engine: s.MinEngine, Hops: s.MinHops}
}

// UGALRouting returns the §9.3 UGAL-L adapter with the paper's 4 sampled
// Valiant intermediates.
func (s *Spec) UGALRouting(pktFlits int) Routing {
	_, minRNGFree := s.MinEngine.(route.RNGFree)
	return &UGAL{
		Min:        s.MinEngine,
		Mids:       s.UGALMids,
		N:          s.Graph.N(),
		Samples:    4,
		Hops:       2 * s.MinHops,
		PktSize:    pktFlits,
		minRNGFree: minRNGFree,
	}
}

// laneTreeSeed fixes the spanning-tree extraction seed: the lane
// structure is a function of the topology alone, identical across load
// points and sweeps (Params.Seed varies per point, and lanes that shift
// with it would make curves incomparable).
const laneTreeSeed = 1

// Routing returns the adapter of a routing mode on this spec. The
// single-table modes are the §9.3 adapters themselves; a multipath mode
// wraps its base as lane 0 of params.Lanes edge-disjoint spanning-tree
// lanes (0 selects the default of 3; the extractor may find fewer on
// sparse topologies, and fails on a disconnected graph). Tree paths are
// capped at the engine's packet path stride so every lane path fits the
// slab.
func (s *Spec) Routing(mode RoutingMode, params Params) (Routing, error) {
	if !mode.valid() {
		return nil, fmt.Errorf("sim: unknown routing mode %d", int(mode))
	}
	row := routingModes[mode]
	base := row.base(s, params.PacketFlits)
	if !row.multipath {
		return base, nil
	}
	lanes := params.Lanes
	if lanes == 0 {
		lanes = 3
	}
	mp, err := s.multiPath(lanes)
	if err != nil {
		return nil, fmt.Errorf("sim: spec %s: %w", s.Name, err)
	}
	return &MultiPathRouting{Base: base, MP: mp, PktSize: params.PacketFlits}, nil
}

// multiPath returns the spec's lane structure for a lane count, building
// it once (route.MultiPath is immutable). Concurrent callers wait for the
// one build.
func (s *Spec) multiPath(lanes int) (*route.MultiPath, error) {
	s.lanesMu.Lock()
	defer s.lanesMu.Unlock()
	if mp := s.lanes[lanes]; mp != nil {
		return mp, nil
	}
	mp, err := route.NewMultiPath(s.Graph, s.MinEngine, lanes, pktStride, laneTreeSeed)
	if err != nil {
		return nil, err
	}
	if s.lanes == nil {
		s.lanes = make(map[int]*route.MultiPath)
	}
	s.lanes[lanes] = mp
	return mp, nil
}

// Table3Names lists the §9.1 simulated configurations.
var Table3Names = []string{"ps-iq", "ps-pal", "bf", "hx", "df", "sf", "mf", "ft"}

// specRegistry maps every constructible spec name to its builder.
// NewSpec and KnownSpec share it, so a serving layer can
// validate a requested name cheaply — without constructing the topology
// — before admitting the request.
var specRegistry = map[string]func(name string) (*Spec, error){
	// 1064 routers, radix 15, p=5
	"ps-iq":       func(n string) (*Spec, error) { return polarStarSpec(n, 11, 3, topo.KindIQ, 5) },
	"ps-iq-small": func(n string) (*Spec, error) { return polarStarSpec(n, 5, 4, topo.KindIQ, 3) },
	// PSIQ(4,3): 168 routers, radix 8 — the resilience-sweep testbed
	// (small enough for dense fault plans, rich enough for 3 EDST lanes)
	"ps-iq-43": func(n string) (*Spec, error) { return polarStarSpec(n, 4, 3, topo.KindIQ, 3) },
	// PSIQ(23,11): 13272 routers, radix 35 — the §7 "largest diameter-3
	// network" point, beyond the paper's simulations
	"ps-iq-large": func(n string) (*Spec, error) { return polarStarSpec(n, 23, 11, topo.KindIQ, 11) },
	// q=8, d'=6: 949 routers (see EXPERIMENTS.md E6 note)
	"ps-pal":       func(n string) (*Spec, error) { return polarStarSpec(n, 8, 6, topo.KindPaley, 5) },
	"ps-pal-small": func(n string) (*Spec, error) { return polarStarSpec(n, 5, 4, topo.KindPaley, 3) },
	// 882 routers, radix 15, p=5
	"bf":       func(n string) (*Spec, error) { return bundleflySpec(n, 7, 4, 5) },
	"bf-small": func(n string) (*Spec, error) { return bundleflySpec(n, 5, 2, 3) },
	// 648 routers, radix 23, p=8
	"hx":       func(n string) (*Spec, error) { return hyperXSpec(n, []int{9, 9, 8}, 8) },
	"hx-small": func(n string) (*Spec, error) { return hyperXSpec(n, []int{4, 4, 4}, 3) },
	// 876 routers, radix 17, p=6
	"df":       func(n string) (*Spec, error) { return dragonflySpec(n, 12, 6, 6) },
	"df-small": func(n string) (*Spec, error) { return dragonflySpec(n, 6, 3, 3) },
	// LPS(23,13): 1092 routers, radix 24, p=8
	"sf": func(n string) (*Spec, error) { return lpsSpec(n, 23, 13, 8) },
	// PGL(2,5): 120 routers, radix 14
	"sf-small": func(n string) (*Spec, error) { return lpsSpec(n, 13, 5, 3) },
	// 1040 routers, radix 16, p=8 on leaves
	"mf":       func(n string) (*Spec, error) { return megaflySpec(n, 8, 16, 8) },
	"mf-small": func(n string) (*Spec, error) { return megaflySpec(n, 3, 6, 3) },
	// 972 routers, radix 36, p=18 on leaves
	"ft":       func(n string) (*Spec, error) { return fatTreeSpec(n, 18) },
	"ft-small": func(n string) (*Spec, error) { return fatTreeSpec(n, 5) },
	// PolarFly: diameter-2 ER_31 network (992 routers, radix 32)
	"pf":       func(n string) (*Spec, error) { return polarFlySpec(n, 31, 10) },
	"pf-small": func(n string) (*Spec, error) { return polarFlySpec(n, 7, 3) },
	// SlimFly: diameter-2 MMS(19) network (722 routers, radix 29)
	"slimfly":       func(n string) (*Spec, error) { return slimFlySpec(n, 19, 9) },
	"slimfly-small": func(n string) (*Spec, error) { return slimFlySpec(n, 5, 2) },
}

// NewSpec constructs a named topology spec. The Table 3 configurations
// ("ps-iq", "ps-pal", "bf", "hx", "df", "sf", "mf", "ft") use the paper's
// parameters; the "-small" variants are scaled-down versions of the same
// construction for fast tests and default benchmarks.
func NewSpec(name string) (*Spec, error) {
	if build, ok := specRegistry[name]; ok {
		return build(name)
	}
	return nil, fmt.Errorf("sim: unknown spec %q", name)
}

// KnownSpec reports whether name is a constructible spec, without
// building it.
func KnownSpec(name string) bool {
	_, ok := specRegistry[name]
	return ok
}

// DegradedInto returns a copy of the spec running on a graph with the
// given links removed, re-routed with an all-pairs table (the analytic
// routers assume the intact topology). Endpoints on disconnected routers
// keep injecting; their packets are the casualties the experiment
// measures, so callers should remove few enough links to keep hosts
// connected — or accept DeliveredFrac < 1. slab, when non-nil, is reused
// as the routing-table backing (see route.NewTableInto): sweeps that
// degrade the same spec repeatedly pass the previous degraded spec's
// TableSlab to avoid reallocating the n×n distance and next-hop table on
// every trial.
func (s *Spec) DegradedInto(removed [][2]int, slab []uint8) *Spec {
	g := s.Graph.RemoveEdges(removed)
	tab := route.NewTableInto(g, route.AllMinPaths, slab)
	// The exact path-length bound of the degraded network: its largest
	// component's diameter (link failures stretch paths well beyond the
	// intact diameter, and a guessed bound either wastes VCs or panics
	// the engine's VC allocator).
	d := tab.MaxDist()
	if d < 1 {
		d = 1
	}
	return &Spec{
		Name:      s.Name + "-degraded",
		Graph:     g,
		PerRouter: s.PerRouter,
		Hosts:     s.Hosts,
		NumGroups: s.NumGroups,
		GroupOf:   s.GroupOf,
		MinEngine: tab,
		MinHops:   d,
		UGALMids:  s.UGALMids,
	}
}

// TableSlab returns the routing-table backing of a table-routed spec for
// reuse via DegradedInto, or nil when the spec routes analytically.
func (s *Spec) TableSlab() []uint8 {
	if t, ok := s.MinEngine.(*route.Table); ok {
		return t.Slab()
	}
	return nil
}

func polarStarSpec(name string, q, dPrime int, kind topo.SupernodeKind, p int) (*Spec, error) {
	ps, err := topo.NewPolarStar(q, dPrime, kind)
	if err != nil {
		return nil, err
	}
	return &Spec{
		Name:      name,
		Graph:     ps.G,
		PerRouter: p,
		NumGroups: ps.NumGroups(),
		GroupOf:   ps.GroupOf,
		MinEngine: route.NewPolarStar(ps),
		MinHops:   3,
	}, nil
}

func bundleflySpec(name string, q, dPrime, p int) (*Spec, error) {
	bf, err := topo.NewBundlefly(q, dPrime)
	if err != nil {
		return nil, err
	}
	// §9.3: Bundlefly stores all minpaths in routing tables.
	s := tableSpec(name, bf.G, p)
	s.NumGroups, s.GroupOf = bf.NumGroups(), bf.GroupOf
	return s, nil
}

func hyperXSpec(name string, dims []int, p int) (*Spec, error) {
	hx, err := topo.NewHyperX(dims...)
	if err != nil {
		return nil, err
	}
	return &Spec{
		Name:      name,
		Graph:     hx.G,
		PerRouter: p,
		NumGroups: hx.NumGroups(),
		GroupOf:   hx.GroupOf,
		MinEngine: route.NewHyperX(hx),
		MinHops:   len(dims),
	}, nil
}

func dragonflySpec(name string, a, h, p int) (*Spec, error) {
	df, err := topo.NewDragonfly(a, h)
	if err != nil {
		return nil, err
	}
	return &Spec{
		Name:      name,
		Graph:     df.G,
		PerRouter: p,
		NumGroups: df.NumGroups(),
		GroupOf:   df.GroupOf,
		MinEngine: route.NewDragonfly(df),
		MinHops:   3,
	}, nil
}

func lpsSpec(name string, pp, q, p int) (*Spec, error) {
	l, err := topo.NewLPS(pp, q)
	if err != nil {
		return nil, err
	}
	// §9.3: Spectralfly stores all minpaths in routing tables.
	return tableSpec(name, l.G, p), nil
}

// tableSpec is a spec routed by an all-minpath table, every router its
// own group. The table is built on the spec's first route: structural
// tools construct specs they never route on. The largest finite distance
// bounds every minimal path; the bit-parallel all-pairs pass computes it
// for a fraction of the table's time and memory, and it equals the
// table's MaxDist.
func tableSpec(name string, g *graph.Graph, p int) *Spec {
	return &Spec{
		Name:      name,
		Graph:     g,
		PerRouter: p,
		NumGroups: g.N(),
		GroupOf:   func(v int) int { return v },
		MinEngine: route.NewTableOnDemand(g, route.AllMinPaths),
		MinHops:   int(g.AllPairsStats().Diameter),
	}
}

func megaflySpec(name string, rho, a, p int) (*Spec, error) {
	mf, err := topo.NewMegafly(rho, a)
	if err != nil {
		return nil, err
	}
	leaves := mf.LeafRouters()
	return &Spec{
		Name:      name,
		Graph:     mf.G,
		PerRouter: p,
		Hosts:     leaves,
		NumGroups: mf.NumGroups(),
		GroupOf:   mf.GroupOf,
		MinEngine: route.NewMegafly(mf),
		MinHops:   4,
		UGALMids:  leaves,
	}, nil
}

// polarFlySpec builds the diameter-2 PolarFly network (the ER_q graph
// used directly as a topology, Lakhotia et al. SC 2022) — the §2.3
// comparison point PolarStar extends. Not part of Table 3; provided as
// an extension for diameter-2 vs diameter-3 studies.
func polarFlySpec(name string, q, p int) (*Spec, error) {
	er, err := topo.NewER(q)
	if err != nil {
		return nil, err
	}
	return tableSpec(name, er.G, p), nil
}

// slimFlySpec builds the diameter-2 SlimFly network (the MMS graph used
// directly as a topology, Besta & Hoefler SC 2014) — like PolarFly, a
// diameter-2 extension point rather than a Table 3 configuration.
func slimFlySpec(name string, q, p int) (*Spec, error) {
	mms, err := topo.NewMMS(q)
	if err != nil {
		return nil, err
	}
	return tableSpec(name, mms.G, p), nil
}

func fatTreeSpec(name string, p int) (*Spec, error) {
	ft, err := topo.NewFatTree(p)
	if err != nil {
		return nil, err
	}
	leaves := ft.LeafRouters()
	return &Spec{
		Name:      name,
		Graph:     ft.G,
		PerRouter: p,
		Hosts:     leaves,
		NumGroups: ft.NumGroups(),
		GroupOf:   ft.GroupOf,
		MinEngine: route.NewFatTree(ft),
		MinHops:   4,
		UGALMids:  leaves,
	}, nil
}
