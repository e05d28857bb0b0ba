package moore

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"polarstar/internal/graph"
)

// MeasuredConfig pairs a design-space point with measured structural
// statistics from the constructed graph — Fig 7 with every order verified
// by the bit-parallel all-pairs engine instead of taken from the closed
// form.
type MeasuredConfig struct {
	Config
	Measured bool // false: order above cap or construction failed
	Stats    graph.PathStats
}

// MeasureConfigs constructs every configuration of order ≤ maxOrder and
// measures its exact {diameter, average path length} with the
// bit-parallel all-pairs kernel. Configurations are distributed over a
// worker pool with one BitBFSScratch per worker (each worker runs the
// serial kernel; parallelism comes from measuring many points at once);
// results are returned in input order, so output is deterministic for
// any GOMAXPROCS.
func MeasureConfigs(cfgs []Config, maxOrder int) []MeasuredConfig {
	out := make([]MeasuredConfig, len(cfgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scratch graph.BitBFSScratch
			for i := w; i < len(cfgs); i += workers {
				c := cfgs[i]
				out[i] = MeasuredConfig{Config: c}
				if maxOrder > 0 && c.Order > int64(maxOrder) {
					continue
				}
				g, err := c.Point().Graph()
				if err != nil {
					continue
				}
				out[i].Measured = true
				out[i].Stats = g.AllPairsStatsSerial(&scratch)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// WriteFig7Measured renders the Fig 7 design space with measured
// statistics: for every feasible configuration up to maxOrder vertices,
// the constructed order, exact diameter and exact mean path length.
func WriteFig7Measured(w io.Writer, lo, hi, maxOrder int) {
	fmt.Fprintf(w, "%-6s %-22s %-8s %-5s %-8s %s\n",
		"radix", "config", "routers", "diam", "avgpath", "connected")
	for r := lo; r <= hi; r++ {
		cfgs := PolarStarConfigs(r)
		if len(cfgs) == 0 {
			fmt.Fprintf(w, "%-6d -\n", r)
			continue
		}
		for _, m := range MeasureConfigs(cfgs, maxOrder) {
			cell := fmt.Sprintf("%v(q=%d,d'=%d)", m.Kind, m.Q, m.DPrime)
			if !m.Measured {
				fmt.Fprintf(w, "%-6d %-22s %-8d %-5s %-8s skipped (> %d routers)\n",
					r, cell, m.Order, "-", "-", maxOrder)
				continue
			}
			fmt.Fprintf(w, "%-6d %-22s %-8d %-5d %-8.4f %v\n",
				r, cell, m.Order, m.Stats.Diameter, m.Stats.AvgPath, m.Stats.Connected)
		}
	}
}
