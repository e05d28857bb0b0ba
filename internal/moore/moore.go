// Package moore implements the scale analysis of the paper: Moore bounds,
// Moore-bound efficiency, the per-radix largest configuration of every
// compared topology (Fig 1), the diameter-2 factor-graph comparison
// (Fig 4), the PolarStar design space (Fig 7) and the closed forms of
// Equations (1) and (2).
package moore

import (
	"fmt"
	"math"

	"polarstar/internal/gf"
	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

// Bound returns the Moore bound 1 + d·Σ_{i<D} (d−1)^i for degree d and
// diameter D.
func Bound(d, D int) int64 {
	if d <= 0 || D <= 0 {
		return 1
	}
	sum := int64(0)
	term := int64(1)
	for i := 0; i < D; i++ {
		sum += term
		term *= int64(d - 1)
	}
	return 1 + int64(d)*sum
}

// Diam3Bound returns the diameter-3 Moore bound d³ − d² + d + 1.
func Diam3Bound(d int) int64 {
	dd := int64(d)
	return dd*dd*dd - dd*dd + dd + 1
}

// Diam2Bound returns the diameter-2 Moore bound d² + 1.
func Diam2Bound(d int) int64 {
	return int64(d)*int64(d) + 1
}

// family names the topology family a design point belongs to. Point.Graph
// builds PolarStar, Bundlefly, Dragonfly and 3-D HyperX points; the
// others are orders from closed forms or measurements.
type family uint8

const (
	famNone family = iota
	famPolarStar
	famBundlefly
	famDragonfly
	famHyperX3D
	famKautz
	famStarMax
	famSpectralfly
	famER
	famMMS
	famPaley
	famCayley
)

// Point is one design point of a topology family: the largest order
// achievable at the given radix and the parameters that achieve it.
type Point struct {
	Radix  int
	Order  int64
	family family
	kind   topo.SupernodeKind // supernode kind of a PolarStar point
	args   [3]int             // the family's parameters, in the order Config prints them
}

// Valid reports whether the family has any configuration at this radix.
func (p Point) Valid() bool { return p.Order > 0 }

// Config describes the point's parameters, e.g. "IQ q=11 d'=3" or
// "a=12 h=6" ("" for an infeasible point).
func (p Point) Config() string {
	a := p.args
	switch p.family {
	case famPolarStar:
		return fmt.Sprintf("%v q=%d d'=%d", p.kind, a[0], a[1])
	case famBundlefly:
		return fmt.Sprintf("q=%d d'=%d", a[0], a[1])
	case famDragonfly:
		return fmt.Sprintf("a=%d h=%d", a[0], a[1])
	case famHyperX3D:
		return fmt.Sprintf("%dx%dx%d", a[0], a[1], a[2])
	case famKautz:
		return fmt.Sprintf("K(%d,2)", a[0])
	case famStarMax:
		return fmt.Sprintf("dG=%d d'=%d", a[0], a[1])
	case famSpectralfly:
		return fmt.Sprintf("X^{%d,%d}", a[0], a[1])
	case famER:
		return fmt.Sprintf("ER_%d", a[0])
	case famMMS:
		return fmt.Sprintf("MMS_%d", a[0])
	case famPaley:
		return fmt.Sprintf("Paley(%d)", a[0])
	case famCayley:
		return "Cayley(Abas)"
	}
	return ""
}

// Graph builds the point's topology; only PolarStar, Bundlefly,
// Dragonfly and 3-D HyperX points have a construction here.
func (p Point) Graph() (*graph.Graph, error) {
	a := p.args
	switch p.family {
	case famPolarStar:
		ps, err := topo.NewPolarStar(a[0], a[1], p.kind)
		if err != nil {
			return nil, err
		}
		return ps.G, nil
	case famBundlefly:
		bf, err := topo.NewBundlefly(a[0], a[1])
		if err != nil {
			return nil, err
		}
		return bf.G, nil
	case famDragonfly:
		df, err := topo.NewDragonfly(a[0], a[1])
		if err != nil {
			return nil, err
		}
		return df.G, nil
	case famHyperX3D:
		hx, err := topo.NewHyperX(a[0], a[1], a[2])
		if err != nil {
			return nil, err
		}
		return hx.G, nil
	}
	return nil, fmt.Errorf("moore: no construction for design point %q", p.Config())
}

// BestPolarStar returns the largest PolarStar at the given radix across
// both supernode kinds and all structure/supernode degree splits (§7.1).
func BestPolarStar(radix int) Point {
	best := Point{Radix: radix}
	for _, kind := range []topo.SupernodeKind{topo.KindIQ, topo.KindPaley} {
		if p := BestPolarStarKind(radix, kind); p.Order > best.Order {
			best = p
		}
	}
	return best
}

// BestPolarStarKind is BestPolarStar restricted to one supernode kind.
func BestPolarStarKind(radix int, kind topo.SupernodeKind) Point {
	best := Point{Radix: radix}
	for q := 2; q+1 <= radix; q++ {
		dPrime := radix - (q + 1)
		if order := int64(topo.PolarStarOrder(q, dPrime, kind)); order > best.Order {
			best = Point{Radix: radix, Order: order, family: famPolarStar, kind: kind, args: [3]int{q, dPrime}}
		}
	}
	return best
}

// BestBundlefly returns the largest Bundlefly 2q²(2d'+1) at the radix
// (MMS degree + Paley degree split).
func BestBundlefly(radix int) Point {
	best := Point{Radix: radix}
	for q := 3; q <= radix; q++ {
		md := topo.MMSDegree(q)
		if md == 0 || md >= radix {
			continue
		}
		dPrime := radix - md
		if order := int64(topo.BundleflyOrder(q, dPrime)); order > best.Order {
			best = Point{Radix: radix, Order: order, family: famBundlefly, args: [3]int{q, dPrime}}
		}
	}
	return best
}

// BestDragonfly maximizes a(ah+1) over splits (a−1) + h = radix.
func BestDragonfly(radix int) Point {
	best := Point{Radix: radix}
	for a := 2; a-1 < radix; a++ {
		h := radix - (a - 1)
		if order := int64(topo.DragonflyOrder(a, h)); order > best.Order {
			best = Point{Radix: radix, Order: order, family: famDragonfly, args: [3]int{a, h}}
		}
	}
	return best
}

// BestHyperX3D maximizes s1·s2·s3 subject to Σ(s_i − 1) = radix.
func BestHyperX3D(radix int) Point {
	best := Point{Radix: radix}
	for s1 := 2; s1-1 <= radix; s1++ {
		for s2 := s1; (s1-1)+(s2-1) < radix; s2++ {
			s3 := radix - (s1 - 1) - (s2 - 1) + 1
			if s3 < s2 {
				continue
			}
			if order := int64(s1) * int64(s2) * int64(s3); order > best.Order {
				best = Point{Radix: radix, Order: order, family: famHyperX3D, args: [3]int{s1, s2, s3}}
			}
		}
	}
	return best
}

// KautzDiam3 returns the bidirectional diameter-3 Kautz point: order
// (d+1)d² with undirected radix 2d, so only even radixes are feasible.
func KautzDiam3(radix int) Point {
	if radix%2 != 0 || radix < 4 {
		return Point{Radix: radix}
	}
	d := radix / 2
	return Point{Radix: radix, Order: int64(topo.KautzOrder(d, 2)), family: famKautz, args: [3]int{d}}
}

// StarMax returns the upper bound on diameter-3 star products built from
// the known factor properties (Fig 1 "StarMax"): the structure graph is
// bounded by the diameter-2 Moore bound d_G² + 1 and the supernode by the
// Property R* bound 2d' + 2 (Proposition 2), maximized over degree splits.
func StarMax(radix int) Point {
	best := Point{Radix: radix}
	for dg := 1; dg <= radix; dg++ {
		dPrime := radix - dg
		if order := Diam2Bound(dg) * int64(2*dPrime+2); order > best.Order {
			best = Point{Radix: radix, Order: order, family: famStarMax, args: [3]int{dg, dPrime}}
		}
	}
	return best
}

// SpectralflyDiam3 returns the largest LPS graph with diameter ≤ 3 at the
// radix, by explicit construction and diameter measurement of candidate
// X^{p,q}. maxOrder caps the search (the diameter check is quadratic).
// Most radixes have no diameter-3 design point (Fig 1).
func SpectralflyDiam3(radix, maxOrder int) Point {
	best := Point{Radix: radix}
	p := radix - 1
	if !gf.IsPrime(p) || p == 2 {
		return best
	}
	for q := 5; ; q += 4 {
		if !gf.IsPrime(q) || q == p {
			continue
		}
		order := topo.LPSOrder(p, q)
		if order == 0 {
			continue
		}
		if order > maxOrder {
			break
		}
		l, err := topo.NewLPS(p, q)
		if err != nil {
			continue
		}
		if d := l.G.Diameter(); d >= 0 && d <= 3 && int64(order) > best.Order {
			best = Point{Radix: radix, Order: int64(order), family: famSpectralfly, args: [3]int{p, q}}
		}
	}
	return best
}

// Geomean returns the geometric mean of the values; zero values are
// skipped.
func Geomean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ScaleRatioGeomean computes the geometric mean over radixes [lo, hi] of
// numer(r)/denom(r), counting only radixes where both are feasible.
func ScaleRatioGeomean(lo, hi int, numer, denom func(int) Point) float64 {
	var ratios []float64
	for r := lo; r <= hi; r++ {
		a, b := numer(r), denom(r)
		if a.Valid() && b.Valid() {
			ratios = append(ratios, float64(a.Order)/float64(b.Order))
		}
	}
	return Geomean(ratios)
}
