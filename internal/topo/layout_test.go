package topo

import "testing"

func TestLayoutSummary(t *testing.T) {
	// PolarStar-IQ(11, 3): ER_11 has q(q+1)²/2 = 792 non-loop edges;
	// each bundle carries |V(IQ_3)| = 8 links (2(d*−q) with d*=15, q=11).
	ps := MustNewPolarStar(11, 3, KindIQ)
	l := ps.Layout()
	if l.Supernodes != 133 || l.RoutersPerSupernode != 8 {
		t.Errorf("blocks: %+v", l)
	}
	if l.Bundles != 11*12*12/2 {
		t.Errorf("bundles = %d, want %d", l.Bundles, 11*12*12/2)
	}
	if l.LinksPerBundle != 2*(15-11) {
		t.Errorf("links per bundle = %d, want 8", l.LinksPerBundle)
	}
	if l.SupernodeClusters != 12 {
		t.Errorf("clusters = %d, want q+1 = 12", l.SupernodeClusters)
	}
	// Cross-check against the actual product graph: the number of
	// inter-supernode links must match.
	inter := 0
	for _, e := range ps.G.Edges() {
		if ps.GroupOf(e[0]) != ps.GroupOf(e[1]) {
			inter++
		}
	}
	if inter != l.InterSupernodeLinks {
		t.Errorf("inter-supernode links = %d, want %d", inter, l.InterSupernodeLinks)
	}
	// §8: bundling reduces global cables by ≈ 2d*/3 at the optimal
	// split; for this config the factor is exactly LinksPerBundle = 8.
	if l.CableReduction != 8 {
		t.Errorf("cable reduction = %f", l.CableReduction)
	}
}

// LayoutSummary quantifies the §8 hierarchical modular layout of a
// PolarStar instance: supernodes as the smallest building blocks, links
// between adjacent supernodes bundled into multi-core fibers (MCFs), and
// the resulting cable-count reduction.
type LayoutSummary struct {
	// Supernodes is the number of building blocks (q²+q+1).
	Supernodes int
	// RoutersPerSupernode is the block size |V(G')| = 2(d*−q) for IQ.
	RoutersPerSupernode int
	// LinksPerBundle is the number of parallel links between each pair
	// of adjacent supernodes (one per supernode vertex).
	LinksPerBundle int
	// Bundles is the number of inter-supernode MCFs: the non-loop edges
	// of ER_q, i.e. q(q+1)²/2.
	Bundles int
	// InterSupernodeLinks is Bundles × LinksPerBundle.
	InterSupernodeLinks int
	// CableReduction is the global cable-count reduction factor achieved
	// by bundling: LinksPerBundle ≈ 2d*/3 at the optimal degree split.
	CableReduction float64
	// SupernodeClusters is the next hierarchy level: the q+1 clusters of
	// the ER modular layout, pairs of which are joined by ≈q bundles.
	SupernodeClusters int
}

// Layout computes the §8 layout summary.
func (ps *PolarStar) Layout() LayoutSummary {
	bundles := ps.Structure.G.M()
	per := ps.Super.N()
	return LayoutSummary{
		Supernodes:          ps.Structure.N(),
		RoutersPerSupernode: per,
		LinksPerBundle:      per,
		Bundles:             bundles,
		InterSupernodeLinks: bundles * per,
		CableReduction:      float64(per),
		SupernodeClusters:   ps.q + 1,
	}
}
