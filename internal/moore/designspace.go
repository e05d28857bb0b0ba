package moore

import (
	"fmt"
	"slices"
	"sort"

	"polarstar/internal/gf"
	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

// Config is one feasible PolarStar configuration (a Fig 7 point).
type Config struct {
	Radix  int
	Q      int
	DPrime int
	Kind   topo.SupernodeKind
	Order  int64
}

func (c Config) String() string {
	return fmt.Sprintf("PolarStar-%v(q=%d,d'=%d): radix %d, %d routers", c.Kind, c.Q, c.DPrime, c.Radix, c.Order)
}

// Point returns the configuration as a design point.
func (c Config) Point() Point {
	return Point{Radix: c.Radix, Order: c.Order, family: famPolarStar, kind: c.Kind, args: [3]int{c.Q, c.DPrime}}
}

// LargestPolarStarGraph builds the largest PolarStar of the radix with at
// most maxOrder routers, among the given supernode kinds (every kind when
// none are given): the Fig 12 and Fig 13 protocol. nil when none fits.
func LargestPolarStarGraph(radix, maxOrder int, kinds ...topo.SupernodeKind) *graph.Graph {
	for _, c := range PolarStarConfigs(radix) {
		if int(c.Order) > maxOrder || len(kinds) > 0 && !slices.Contains(kinds, c.Kind) {
			continue
		}
		if g, err := c.Point().Graph(); err == nil {
			return g
		}
	}
	return nil
}

// PolarStarConfigs enumerates every feasible PolarStar configuration at
// the given radix, largest first (Fig 7: the design space offers many
// orders per radix).
func PolarStarConfigs(radix int) []Config {
	var out []Config
	for _, kind := range []topo.SupernodeKind{topo.KindIQ, topo.KindPaley} {
		for q := 2; q+1 <= radix; q++ {
			dPrime := radix - (q + 1)
			if order := topo.PolarStarOrder(q, dPrime, kind); order > 0 {
				out = append(out, Config{Radix: radix, Q: q, DPrime: dPrime, Kind: kind, Order: int64(order)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Order > out[j].Order })
	return out
}

// BestERPoint returns the ER graph point at the radix: order q²+q+1 at
// degree q+1 when q = radix−1 is a prime power.
func BestERPoint(radix int) Point {
	q := radix - 1
	if q < 2 || !gf.IsPrimePower(q) {
		return Point{Radix: radix}
	}
	return Point{Radix: radix, Order: int64(q*q + q + 1), family: famER, args: [3]int{q}}
}

// BestMMSPoint returns the MMS graph point: order 2q² at degree
// (3q−δ)/2 when the radix matches such a q.
func BestMMSPoint(radix int) Point {
	p := Point{Radix: radix}
	for q := 3; q <= radix; q++ {
		if topo.MMSDegree(q) == radix {
			p = Point{Radix: radix, Order: int64(topo.MMSOrder(q)), family: famMMS, args: [3]int{q}}
		}
	}
	return p
}

// PaleyPoint returns the Paley graph point: order 2d+1 at degree d when
// 2d+1 is a prime power ≡ 1 mod 4.
func PaleyPoint(radix int) Point {
	q := 2*radix + 1
	if radix < 2 || radix%2 != 0 || !gf.IsPrimePower(q) || q%4 != 1 {
		return Point{Radix: radix}
	}
	return Point{Radix: radix, Order: int64(q), family: famPaley, args: [3]int{q}}
}

// CayleyDiam2Point returns the reference curve for the best known
// diameter-2 Cayley graphs (Abas 2017), which reach roughly half the
// Moore bound: order ⌊(d²+d+2)/2⌋. This is a published closed-form scale
// reference, not an explicit construction in this repository.
func CayleyDiam2Point(radix int) Point {
	d := int64(radix)
	return Point{Radix: radix, Order: (d*d + d + 2) / 2, family: famCayley}
}
