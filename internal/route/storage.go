package route

import "math/bits"

// Routing-state accounting: the §9.2/§9.3 storage argument quantified.
// The paper's point is that Spectralfly and Bundlefly need all-minpath
// routing tables (per-router state linear in the network size) for
// competitive performance, while PolarStar computes minpaths from
// factor-graph state that is quadratic only in the factor sizes.

// StateBytes estimates the total routing state of the Table engine: one
// distance byte per (router, destination) pair — the floor for
// destination-based table routing; all-minpath next-hop sets add a
// per-destination next-hop set on top (reported by NextHopEntries).
func (t *Table) StateBytes() int64 {
	n := int64(t.g.N())
	return n * n
}

// MemBytes reports the actual heap footprint of the table's routing
// arrays — the number a serving layer charges against its resident-spec
// budget. Unlike StateBytes (the paper's storage model) this counts what
// the process really holds: the distance matrix plus the next-hop masks,
// ⌈max degree / 8⌉ bytes per pair. It builds an on-demand table, so the
// number charged is memory held.
func (t *Table) MemBytes() int64 {
	t.filled()
	return int64(len(t.dist) + len(t.masks))
}

// NextHopEntries counts the total (router, destination, minimal next
// hop) entries an all-minpath routing table stores — the storage the
// paper attributes to SF/BF MIN routing: one per set mask bit.
func (t *Table) NextHopEntries() int64 {
	var total int64
	for _, b := range t.filled().masks {
		total += int64(bits.OnesCount8(b))
	}
	return total
}

// PerRouterStateBytes returns the per-router state of the analytic
// PolarStar router: the structure-graph adjacency (q²+q+1 vertices of
// degree ≤ q+1, 4-byte ids), the supernode adjacency and bijection, and
// the 3-element field vectors behind the cross-product oracle. This is
// O(q² + d'²), independent of the product size — the §9.2 claim.
func (r *PolarStar) PerRouterStateBytes() int64 {
	ps := r.ps
	erN := int64(ps.Structure.N())
	erAdj := erN * int64(ps.Structure.Degree()) * 4
	erVecs := erN * 3 * 4
	sn := int64(ps.Super.N())
	superAdj := sn * int64(ps.Super.Degree()) * 4
	bijection := sn * 4 * 2 // f and f⁻¹
	return erAdj + erVecs + superAdj + bijection
}

// TableStateComparison summarizes both storage models for a PolarStar
// instance of n routers.
type TableStateComparison struct {
	Routers             int
	AnalyticPerRouter   int64 // bytes (§9.2 router)
	TablePerRouter      int64 // bytes, distance-row floor (n bytes)
	AllMinpathEntries   int64 // total next-hop entries network-wide
	AllMinpathPerRouter int64 // entries per router
}

// CompareState builds the storage comparison between the analytic
// PolarStar router and an all-minpath table on the same product graph.
func CompareState(r *PolarStar, t *Table) TableStateComparison {
	n := t.g.N()
	entries := t.NextHopEntries()
	return TableStateComparison{
		Routers:             n,
		AnalyticPerRouter:   r.PerRouterStateBytes(),
		TablePerRouter:      int64(n),
		AllMinpathEntries:   entries,
		AllMinpathPerRouter: entries / int64(n),
	}
}
