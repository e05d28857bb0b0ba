package moore

import (
	"fmt"
	"io"
	"strings"

	"polarstar/internal/graph"
	"polarstar/internal/partition"
	"polarstar/internal/topo"
)

// Fig1Row is one radix of the diameter-3 scalability comparison (Fig 1):
// the order and Moore-bound efficiency of every compared topology.
type Fig1Row struct {
	Radix       int
	MooreBound  int64
	PolarStar   Point
	StarMax     Point
	Bundlefly   Point
	Dragonfly   Point
	HyperX3D    Point
	Kautz       Point
	Spectralfly Point // filled by Fig1WithSpectralfly only
}

// Fig1 computes the scalability comparison over the radix range.
func Fig1(lo, hi int) []Fig1Row {
	var rows []Fig1Row
	for r := lo; r <= hi; r++ {
		rows = append(rows, Fig1Row{
			Radix:      r,
			MooreBound: Diam3Bound(r),
			PolarStar:  BestPolarStar(r),
			StarMax:    StarMax(r),
			Bundlefly:  BestBundlefly(r),
			Dragonfly:  BestDragonfly(r),
			HyperX3D:   BestHyperX3D(r),
			Kautz:      KautzDiam3(r),
		})
	}
	return rows
}

// Fig1WithSpectralfly additionally fills the Spectralfly column by
// explicit LPS construction and diameter measurement, capped at maxOrder
// vertices per candidate (the diameter check is quadratic). Spectralfly
// has diameter-3 design points at very few radixes, exactly as Fig 1
// shows.
func Fig1WithSpectralfly(lo, hi, maxOrder int) []Fig1Row {
	rows := Fig1(lo, hi)
	for i := range rows {
		rows[i].Spectralfly = SpectralflyDiam3(rows[i].Radix, maxOrder)
	}
	return rows
}

// WriteFig1 renders Fig 1 as an aligned text table.
func WriteFig1(w io.Writer, rows []Fig1Row) {
	withSF := false
	for _, r := range rows {
		if r.Spectralfly.Valid() {
			withSF = true
		}
	}
	fmt.Fprintf(w, "%-6s %-12s %-22s %-10s %-18s %-16s %-14s %-12s",
		"radix", "Moore(D=3)", "PolarStar", "StarMax", "Bundlefly", "Dragonfly", "3D-HyperX", "Kautz")
	if withSF {
		fmt.Fprintf(w, " %-16s", "Spectralfly")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %-12d %-22s %-10d %-18s %-16s %-14s %-12s",
			r.Radix, r.MooreBound,
			pointCell(r.PolarStar), r.StarMax.Order,
			pointCell(r.Bundlefly), pointCell(r.Dragonfly),
			pointCell(r.HyperX3D), pointCell(r.Kautz))
		if withSF {
			fmt.Fprintf(w, " %-16s", pointCell(r.Spectralfly))
		}
		fmt.Fprintln(w)
	}
}

func pointCell(p Point) string {
	if !p.Valid() {
		return "-"
	}
	return fmt.Sprintf("%d (%s)", p.Order, p.Config())
}

// WriteFig13 renders Fig 13 (§11.1): per radix, the bisection cut
// fraction of the largest PolarStar-IQ and PolarStar-Paley with at most
// maxOrder routers.
func WriteFig13(w io.Writer, lo, hi, maxOrder int, seed int64) {
	fmt.Fprintf(w, "%-6s %-10s %-10s\n", "radix", "ps-iq", "ps-paley")
	for r := lo; r <= hi; r++ {
		fmt.Fprintf(w, "%-6d %-10s %-10s\n", r,
			CutCell(LargestPolarStarGraph(r, maxOrder, topo.KindIQ), seed),
			CutCell(LargestPolarStarGraph(r, maxOrder, topo.KindPaley), seed))
	}
}

// CutCell formats g's bisection cut fraction for the Fig 12/13 tables,
// "-" when there is no graph.
func CutCell(g *graph.Graph, seed int64) string {
	if g == nil {
		return "-"
	}
	return fmt.Sprintf("%.3f", partition.CutFraction(g, seed, partition.Options{}))
}

// Fig4Row is one radix of the diameter-2 family comparison (Fig 4).
type Fig4Row struct {
	Radix      int
	MooreBound int64
	ER         Point
	MMS        Point
	Paley      Point
	Cayley     Point
}

// Fig4 computes the diameter-2 comparison over the radix range.
func Fig4(lo, hi int) []Fig4Row {
	var rows []Fig4Row
	for r := lo; r <= hi; r++ {
		rows = append(rows, Fig4Row{
			Radix:      r,
			MooreBound: Diam2Bound(r),
			ER:         BestERPoint(r),
			MMS:        BestMMSPoint(r),
			Paley:      PaleyPoint(r),
			Cayley:     CayleyDiam2Point(r),
		})
	}
	return rows
}

// WriteFig4 renders Fig 4 as an aligned text table.
func WriteFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintf(w, "%-6s %-12s %-16s %-16s %-14s %-14s\n",
		"radix", "Moore(D=2)", "ER", "MMS", "Paley", "Cayley")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %-12d %-16s %-16s %-14s %-14s\n",
			r.Radix, r.MooreBound, pointCell(r.ER), pointCell(r.MMS),
			pointCell(r.Paley), pointCell(r.Cayley))
	}
}

// WriteFig7 renders the PolarStar design space (Fig 7): every feasible
// configuration per radix.
func WriteFig7(w io.Writer, lo, hi int) {
	fmt.Fprintf(w, "%-6s %-10s %s\n", "radix", "largest", "all feasible orders")
	for r := lo; r <= hi; r++ {
		cfgs := PolarStarConfigs(r)
		if len(cfgs) == 0 {
			fmt.Fprintf(w, "%-6d %-10s -\n", r, "-")
			continue
		}
		var orders []string
		for _, c := range cfgs {
			orders = append(orders, fmt.Sprintf("%d[%v,q=%d]", c.Order, c.Kind, c.Q))
		}
		fmt.Fprintf(w, "%-6d %-10d %s\n", r, cfgs[0].Order, strings.Join(orders, " "))
	}
}

// HeadlineRatios reproduces the §1.3 headline numbers: geometric-mean
// scale increase of PolarStar over Bundlefly, Dragonfly and 3-D HyperX
// for radixes in [lo, hi] (the paper uses [8, 128]).
type HeadlineRatios struct {
	VsBundlefly float64 // paper: 1.3×
	VsDragonfly float64 // paper: 1.9×
	VsHyperX    float64 // paper: 6.7×
}

// Headline computes the headline geometric-mean ratios.
func Headline(lo, hi int) HeadlineRatios {
	return HeadlineRatios{
		VsBundlefly: ScaleRatioGeomean(lo, hi, BestPolarStar, BestBundlefly),
		VsDragonfly: ScaleRatioGeomean(lo, hi, BestPolarStar, BestDragonfly),
		VsHyperX:    ScaleRatioGeomean(lo, hi, BestPolarStar, BestHyperX3D),
	}
}

// Table1 is the qualitative network-property assessment of the paper
// (Table 1), reproduced as a constant for the psscale tool. Legend:
// ++ very good, + fair, x not good.
const Table1 = `Topology    Direct  Scalability  Stable-Design  D<=3  Bundlability
Fat-tree    x       ++           ++             x     ++
PolarFly    ++      x            +              ++    ++
Slimfly     ++      x            +              ++    ++
3-D HyperX  ++      +            ++             ++    ++
Dragonfly   ++      ++           ++             ++    +
Bundlefly   ++      ++           +              ++    ++
Megafly     x       ++           ++             ++    +
Spectralfly ++      +            +              ++    +
PolarStar   ++      ++           ++             ++    ++
`
