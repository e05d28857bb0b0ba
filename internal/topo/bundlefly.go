package topo

import (
	"fmt"

	"polarstar/internal/graph"
)

// Bundlefly (Lei et al., ICS 2020) is the state-of-the-art diameter-3
// star-product baseline: the P1-star product of a McKay–Miller–Širáň
// structure graph H_q with a Paley supernode. Table 3 uses
// Bundlefly(q=7, d'=4): 98·9 = 882 routers of radix 15.
type Bundlefly struct {
	Structure *MMS
	Super     *Supernode
	G         *graph.Graph
}

// NewBundlefly builds Bundlefly with MMS parameter q and Paley supernode
// degree dPrime.
func NewBundlefly(q, dPrime int) (*Bundlefly, error) {
	mms, err := NewMMS(q)
	if err != nil {
		return nil, err
	}
	super, err := NewPaleySupernode(dPrime)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("Bundlefly(q=%d,d'=%d)", q, dPrime)
	return &Bundlefly{
		Structure: mms,
		Super:     super,
		G:         StarProduct(name, mms.G, super, super.F),
	}, nil
}

// NumGroups returns the number of supernodes (2q²).
func (bf *Bundlefly) NumGroups() int { return bf.Structure.N() }

// GroupOf returns the supernode containing v.
func (bf *Bundlefly) GroupOf(v int) int { return v / bf.Super.N() }

// BundleflyOrder returns 2q²·(2d'+1) when the parameters are feasible,
// else 0.
func BundleflyOrder(q, dPrime int) int {
	if MMSOrder(q) == 0 || !PaleyFeasible(dPrime) {
		return 0
	}
	return MMSOrder(q) * (2*dPrime + 1)
}
