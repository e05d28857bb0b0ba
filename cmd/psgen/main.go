// psgen generates network topologies and writes them as edge lists.
//
// Usage:
//
//	psgen -topo polarstar -q 11 -dprime 3 -kind iq            # PolarStar
//	psgen -topo bundlefly -q 7 -dprime 4 -o bf.edges          # Bundlefly
//	psgen -topo dragonfly -a 12 -h 6                          # Dragonfly
//	psgen -topo hyperx -dims 9x9x8                            # 3-D HyperX
//	psgen -topo er -q 11 | head                               # ER_11 factor
//	psgen -topo polarstar -q 11 -dprime 3 -kind iq -stats     # print stats only
//	psgen -topo polarstar -kind iq -dprime 3 -sweep 5-16      # stats per q
//
// -sweep runs the -stats analysis for every q in the given range. The
// sweep distributes topology points over a worker pool, each worker
// reusing one bit-parallel BFS scratch arena across its graphs; lines
// are printed in q order regardless of worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"polarstar/internal/cli"
	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

func main() {
	var (
		topoName = flag.String("topo", "polarstar", "polarstar|er|iq|paley|bundlefly|mms|dragonfly|hyperx|fattree|megafly|kautz|jellyfish|lps")
		q        = flag.Int("q", 11, "field order / MMS parameter / LPS q")
		dPrime   = flag.Int("dprime", 3, "supernode degree")
		kindName = flag.String("kind", "iq", "supernode kind: iq|paley|bdf|complete")
		a        = flag.Int("a", 12, "dragonfly/megafly group size")
		h        = flag.Int("h", 6, "dragonfly global links per router")
		rho      = flag.Int("rho", 8, "megafly spine global arity")
		p        = flag.Int("p", 23, "fat-tree half radix / LPS p / jellyfish degree")
		n        = flag.Int("n", 1064, "jellyfish order / kautz word length")
		dims     = flag.String("dims", "9x9x8", "hyperx dimensions, e.g. 9x9x8")
		seed     = flag.Int64("seed", 1, "seed for randomized topologies")
		out      = flag.String("o", "", "output file (default stdout)")
		stats    = flag.Bool("stats", false, "print order/degree/diameter instead of edges")
		dot      = flag.Bool("dot", false, "emit Graphviz DOT instead of an edge list")
		sweep    = flag.String("sweep", "", `q-sweep range "lo-hi": print -stats lines for every q`)
	)
	flag.Parse()

	kind, err := topo.ParseKind(*kindName)
	if err != nil {
		cli.Fatal(err)
	}
	if *sweep != "" {
		if err := runSweep(*sweep, *topoName, kind, *dPrime, *a, *h, *rho, *p, *n, *dims, *seed); err != nil {
			cli.Fatal(err)
		}
		return
	}
	g, err := build(*topoName, kind, *q, *dPrime, *a, *h, *rho, *p, *n, *dims, *seed)
	if err != nil {
		cli.Fatal(err)
	}
	if *stats {
		s := g.AllPairsStats()
		fmt.Print(statsLine(g, s))
		return
	}
	write := g.WriteEdgeList
	if *dot {
		write = func(w io.Writer) error { return g.WriteDOT(w, nil) }
	}
	if *out == "" {
		err = write(os.Stdout)
	} else {
		err = cli.WriteFile(*out, write)
	}
	if err != nil {
		cli.Fatal(err)
	}
}

func statsLine(g *graph.Graph, s graph.PathStats) string {
	return fmt.Sprintf("%s: n=%d m=%d maxdeg=%d diameter=%d avgpath=%.3f girth=%d connected=%v\n",
		g.Name(), g.N(), g.M(), g.MaxDegree(), s.Diameter, s.AvgPath, g.Girth(), s.Connected)
}

// runSweep prints a -stats line for every q in the range. Points are
// strided over a worker pool; each worker keeps one BitBFSScratch for
// all of its graphs, and output is assembled in q order.
func runSweep(rng, topoName string, kind topo.SupernodeKind, dPrime, a, h, rho, p, n int, dims string, seed int64) error {
	lo, hi, err := parseRange(rng)
	if err != nil {
		return err
	}
	lines := make([]string, hi-lo+1)
	workers := min(runtime.GOMAXPROCS(0), len(lines))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var scratch graph.BitBFSScratch
			for i := w; i < len(lines); i += workers {
				q := lo + i
				g, err := build(topoName, kind, q, dPrime, a, h, rho, p, n, dims, seed)
				if err != nil {
					lines[i] = fmt.Sprintf("q=%d: skipped (%v)\n", q, err)
					continue
				}
				lines[i] = statsLine(g, g.AllPairsStatsSerial(&scratch))
			}
		}(w)
	}
	wg.Wait()
	for _, line := range lines {
		fmt.Print(line)
	}
	return nil
}

func parseRange(s string) (lo, hi int, err error) {
	parts := strings.SplitN(s, "-", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf(`bad -sweep %q: want "lo-hi"`, s)
	}
	if lo, err = strconv.Atoi(parts[0]); err != nil {
		return 0, 0, fmt.Errorf("bad -sweep %q: %v", s, err)
	}
	if hi, err = strconv.Atoi(parts[1]); err != nil {
		return 0, 0, fmt.Errorf("bad -sweep %q: %v", s, err)
	}
	if lo < 1 || hi < lo {
		return 0, 0, fmt.Errorf("bad -sweep %q: need 1 <= lo <= hi", s)
	}
	return lo, hi, nil
}

func build(name string, kind topo.SupernodeKind, q, dPrime, a, h, rho, p, n int, dims string, seed int64) (*graph.Graph, error) {
	switch name {
	case "polarstar":
		ps, err := topo.NewPolarStar(q, dPrime, kind)
		if err != nil {
			return nil, err
		}
		return ps.G, nil
	case "er":
		er, err := topo.NewER(q)
		if err != nil {
			return nil, err
		}
		return er.G, nil
	case "iq", "paley", "bdf", "complete":
		k, _ := topo.ParseKind(name)
		s, err := topo.NewSupernode(k, dPrime)
		if err != nil {
			return nil, err
		}
		return s.G, nil
	case "bundlefly":
		bf, err := topo.NewBundlefly(q, dPrime)
		if err != nil {
			return nil, err
		}
		return bf.G, nil
	case "mms":
		m, err := topo.NewMMS(q)
		if err != nil {
			return nil, err
		}
		return m.G, nil
	case "dragonfly":
		df, err := topo.NewDragonfly(a, h)
		if err != nil {
			return nil, err
		}
		return df.G, nil
	case "hyperx":
		var ds []int
		for _, part := range strings.Split(dims, "x") {
			v, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("bad -dims %q: %v", dims, err)
			}
			ds = append(ds, v)
		}
		hx, err := topo.NewHyperX(ds...)
		if err != nil {
			return nil, err
		}
		return hx.G, nil
	case "fattree":
		ft, err := topo.NewFatTree(p)
		if err != nil {
			return nil, err
		}
		return ft.G, nil
	case "megafly":
		mf, err := topo.NewMegafly(rho, a)
		if err != nil {
			return nil, err
		}
		return mf.G, nil
	case "kautz":
		k, err := topo.NewKautz(p, n)
		if err != nil {
			return nil, err
		}
		return k.G, nil
	case "jellyfish":
		return topo.NewJellyfish(n, p, seed)
	case "lps":
		l, err := topo.NewLPS(p, q)
		if err != nil {
			return nil, err
		}
		return l.G, nil
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}
