// pssearch is the design-space search CLI: simulated annealing with
// 2-opt edge swaps over a degree-bounded start graph, delta-evaluated on
// the bit-BFS kernel (internal/search, graph.DeltaStats), reporting the
// best-found ASPL against the Moore-type lower bound.
//
// Everything it prints to stdout and writes to -checkpoint / -best-out
// is a pure function of the flags minus -workers, so equal-seed runs are
// byte-identical at any worker count — the determinism contract shared
// with pssim. -workers is a global parallelism budget: it is split into
// goroutines driving searchers (at most -searchers) times the width of
// each searcher's intra-evaluation pool, which shards the phases of
// every delta Apply/Resync across per-worker scratch arenas with a
// fixed-order serial reduction. Neither level can change a result bit.
// The -metrics artifact is likewise stable once -metrics-timing=false,
// except that its manifest records the worker budget (and its
// searcher×intra split) and explicit command line.
//
// Start graphs:
//
//	-start jellyfish:N,D[,SEED]   random D-regular graph on N vertices
//	-start er:Q                   ER_Q Paley-quadratic diameter-3 graph
//	-start polarstar:Q,D'[,KIND]  PolarStar star product (KIND: iq|paley|bdf|complete)
//	-start file:PATH              edge list (psgen format)
//
// A finished run can be continued: -resume CHECKPOINT restarts from the
// serialized searcher states, and running it with the same -epochs is a
// byte-stable no-op (the CI smoke asserts cmp-equality).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"polarstar/internal/cli"
	"polarstar/internal/graph"
	"polarstar/internal/moore"
	"polarstar/internal/obs"
	"polarstar/internal/search"
	"polarstar/internal/topo"
)

// buildStart constructs the start graph from its spec string.
func buildStart(spec string, seed int64) (*graph.Graph, error) {
	kind, rest, _ := strings.Cut(spec, ":")
	args := strings.Split(rest, ",")
	atoi := func(s string) (int, error) { return strconv.Atoi(strings.TrimSpace(s)) }
	switch kind {
	case "jellyfish":
		if len(args) < 2 {
			return nil, fmt.Errorf("jellyfish spec needs N,D")
		}
		n, err := atoi(args[0])
		if err != nil {
			return nil, err
		}
		d, err := atoi(args[1])
		if err != nil {
			return nil, err
		}
		s := seed
		if len(args) >= 3 {
			v, err := atoi(args[2])
			if err != nil {
				return nil, err
			}
			s = int64(v)
		}
		return topo.NewJellyfish(n, d, s)
	case "er":
		q, err := atoi(rest)
		if err != nil {
			return nil, err
		}
		er, err := topo.NewER(q)
		if err != nil {
			return nil, err
		}
		// The polarity graph keeps self-loops at its absolute points;
		// the search wants the standard simple form (absolute points at
		// degree q, the rest at q+1).
		return stripLoops(er.G), nil
	case "polarstar":
		if len(args) < 2 {
			return nil, fmt.Errorf("polarstar spec needs Q,D'")
		}
		q, err := atoi(args[0])
		if err != nil {
			return nil, err
		}
		dPrime, err := atoi(args[1])
		if err != nil {
			return nil, err
		}
		sk := topo.KindIQ
		if len(args) >= 3 {
			if sk, err = topo.ParseKind(strings.TrimSpace(args[2])); err != nil {
				return nil, err
			}
		}
		ps, err := topo.NewPolarStar(q, dPrime, sk)
		if err != nil {
			return nil, err
		}
		return ps.G, nil
	case "file":
		f, err := os.Open(rest)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	default:
		return nil, fmt.Errorf("unknown start spec %q (jellyfish:|er:|polarstar:|file:)", spec)
	}
}

// stripLoops rebuilds g without its self-loop annotations (Edges()
// already excludes them); returns g unchanged if it has none.
func stripLoops(g *graph.Graph) *graph.Graph {
	if g.NumLoops() == 0 {
		return g
	}
	b := graph.NewBuilder(g.Name()+"-simple", g.N())
	for _, e := range g.Edges() {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func main() {
	var (
		start      = flag.String("start", "jellyfish:64,4", "start graph spec (see doc comment)")
		seed       = flag.Int64("seed", 1, "run seed (feeds every searcher's rng stream)")
		searchers  = flag.Int("searchers", 4, "independent annealers")
		epochs     = flag.Int("epochs", 8, "serial barriers (total; resume continues up to this)")
		iters      = flag.Int("iters", 500, "proposals per searcher per epoch")
		temp       = flag.Float64("temp", -1, "initial Metropolis temperature in cost units (-1: n/2, 0: greedy)")
		cooling    = flag.Float64("cooling", 0.85, "per-epoch temperature factor")
		resync     = flag.Int("resync", 256, "accepted swaps between full resyncs (-1: never)")
		workers    = flag.Int("workers", 1, "parallelism budget, split between searcher goroutines and intra-evaluation pools (never affects results)")
		checkpoint = flag.String("checkpoint", "", "write the final search state to this JSON file")
		resume     = flag.String("resume", "", "resume from a checkpoint written by -checkpoint")
		bestOut    = flag.String("best-out", "", "write the best graph as an edge list to this file")
		met        = cli.Register("pssearch")
	)
	flag.Parse()
	defer met.Profile()()

	var (
		eng       *search.Engine
		startASPL float64
		err       error
	)
	p := search.Params{
		Seed:        *seed,
		Searchers:   *searchers,
		Epochs:      *epochs,
		Iters:       *iters,
		InitTemp:    *temp,
		Cooling:     *cooling,
		ResyncEvery: *resync,
		Workers:     *workers,
		TimeEvals:   *met.Metrics != "" && *met.Timing,
	}
	if *resume != "" {
		cp, err := search.ReadCheckpoint(*resume)
		if err != nil {
			cli.Fatal(err)
		}
		cp.Params.TimeEvals = p.TimeEvals
		eng, err = search.Restore(cp, *workers, *epochs)
		if err != nil {
			cli.Fatal(err)
		}
	} else {
		g, err := buildStart(*start, *seed)
		if err != nil {
			cli.Fatal(err)
		}
		startASPL = g.AllPairsStats().AvgPath
		if *temp < 0 {
			p.InitTemp = float64(g.N()) / 2
		}
		eng, err = search.New(g, p)
		if err != nil {
			cli.Fatal(err)
		}
	}

	t0 := time.Now()
	res := eng.Run()
	wall := time.Since(t0)

	n := eng.N()
	degree := res.Best.MaxDegree()
	bound, _ := moore.ASPLLowerBound(n, degree)
	gap, _ := moore.ASPLGap(res.Stats.AvgPath, n, degree)

	fmt.Printf("pssearch: %s n=%d degree=%d searchers=%d epochs=%d iters=%d seed=%d\n",
		eng.Name(), n, degree, eng.Params().Searchers, eng.Epoch(), eng.Params().Iters, eng.Params().Seed)
	if startASPL > 0 {
		fmt.Printf("pssearch: start aspl=%.6f\n", startASPL)
	}
	fmt.Printf("pssearch: best cost=%d aspl=%.6f diameter=%d connected=%v\n",
		res.BestCost, res.Stats.AvgPath, res.Stats.Diameter, res.Stats.Connected)
	fmt.Printf("pssearch: lower bound=%.6f gap=%.3f%%\n", bound, gap*100)
	fmt.Printf("pssearch: proposed=%d accepted=%d invalid=%d evals=%d avg-dirty=%.1f resyncs=%d drift=%d\n",
		res.Counters.Proposed, res.Counters.Accepted, res.Counters.Invalid, res.Counters.Evals,
		avgDirty(res.Counters), res.Counters.Resyncs, res.Counters.Drift)
	fmt.Fprintf(os.Stderr, "pssearch: wall %.2fs (%.0f swaps/sec)\n",
		wall.Seconds(), float64(res.Counters.Evals)/wall.Seconds())
	if res.Counters.Drift > 0 {
		cli.Fatal(fmt.Errorf("delta state drifted from full recomputation %d times", res.Counters.Drift))
	}

	if *checkpoint != "" {
		if err = search.WriteCheckpoint(*checkpoint, eng.Checkpoint()); err != nil {
			cli.Fatal(err)
		}
	}
	if *bestOut != "" {
		if err := cli.WriteFile(*bestOut, res.Best.WriteEdgeList); err != nil {
			cli.Fatal(err)
		}
	}

	searcherWorkers, intraWorkers := eng.WorkerSplit()
	if run := met.Run(obs.Manifest{Spec: *start, Seed: eng.Params().Seed, Workers: *workers,
		SearcherWorkers: searcherWorkers, IntraWorkers: intraWorkers}); run != nil {
		sr := &obs.SearchRun{
			Graph:        eng.Name(),
			N:            n,
			Degree:       degree,
			Seed:         eng.Params().Seed,
			Searchers:    eng.Params().Searchers,
			Epochs:       eng.Epoch(),
			Iters:        eng.Params().Iters,
			Proposed:     obs.Counter(res.Counters.Proposed),
			Accepted:     obs.Counter(res.Counters.Accepted),
			Invalid:      obs.Counter(res.Counters.Invalid),
			Evals:        obs.Counter(res.Counters.Evals),
			DirtyTotal:   obs.Counter(res.Counters.DirtyTotal),
			FullRebuilds: obs.Counter(res.Counters.FullRebuilds),
			Resyncs:      obs.Counter(res.Counters.Resyncs),
			Drift:        obs.Counter(res.Counters.Drift),
			DistsBytes:   obs.Counter(res.Counters.DistsBytes),
			AvgDirty:     avgDirty(res.Counters),
			BestCost:     res.BestCost,
			BestASPL:     res.Stats.AvgPath,
			BestDiameter: res.Stats.Diameter,
			Connected:    res.Stats.Connected,
			StartASPL:    startASPL,
			LowerBound:   bound,
			GapPct:       gap * 100,
		}
		if res.Counters.Proposed > 0 {
			sr.AcceptRate = float64(res.Counters.Accepted) / float64(res.Counters.Proposed)
		}
		for _, ep := range res.Trajectory {
			sr.Trajectory = append(sr.Trajectory, obs.SearchEpoch(ep))
		}
		if *met.Timing {
			sr.SwapsPerSec = float64(res.Counters.Evals) / wall.Seconds()
			sr.EvalNS = res.EvalNS
		}
		run.Search = sr
		met.Finish(run, "")
	}
}

func avgDirty(c search.Counters) float64 {
	if c.Evals == 0 {
		return 0
	}
	return float64(c.DirtyTotal) / float64(c.Evals)
}
