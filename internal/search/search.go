// Package search is the design-space engine of cmd/pssearch: simulated
// annealing over degree-bounded graphs using 2-opt edge swaps, with
// graph.DeltaStats as the incremental ASPL oracle (only sources whose
// BFS tree can have changed are re-evaluated, with full resyncs on a
// fixed accepted-swap cadence).
//
// Determinism contract (matching the sim engine's): a run's entire
// output — best graph, cost, trajectory, every counter — is a pure
// function of (start graph, Params minus Workers). Each searcher owns a
// splitmix64 stream seeded from (Seed, searcher id) and shares nothing
// during an epoch; searchers synchronize only at serial inter-epoch
// barriers, where aggregation and the best-so-far exchange walk them in
// ascending id order. Workers is a pure parallelism budget: the engine
// splits it between goroutines driving searchers and per-evaluation
// depth (graph.EvalPool workers inside each DeltaStats.Apply), and
// neither axis can change a result bit — driver assignment only decides
// which goroutine runs which searcher, and the pooled delta evaluation
// is bit-identical to serial at any width (its workers write disjoint
// task slots reduced in fixed order).
//
// The objective is the integer cost Σd(s,t) + missing·n over ordered
// pairs, where missing counts unreachable pairs and n is the virtual
// distance penalizing disconnection: minimizing it minimizes ASPL while
// strictly preferring more-connected graphs, and integer comparison
// keeps acceptance decisions exact.
package search

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"polarstar/internal/graph"
	"polarstar/internal/obs"
)

// Params configures a search run. The zero value is not runnable; see
// WithDefaults.
type Params struct {
	Seed        int64   `json:"seed"`
	Searchers   int     `json:"searchers"`    // independent annealers
	Epochs      int     `json:"epochs"`       // serial barriers (total, including completed ones on resume)
	Iters       int     `json:"iters"`        // proposals per searcher per epoch
	InitTemp    float64 `json:"init_temp"`    // Metropolis temperature at epoch 0, in cost units
	Cooling     float64 `json:"cooling"`      // per-epoch geometric temperature factor
	ResyncEvery int     `json:"resync_every"` // accepted swaps between full resyncs (0: never)

	// Workers is the run's total parallelism budget. The engine splits
	// it between searcher-level drivers (min(Workers, Searchers)
	// goroutines) and intra-evaluation depth (Workers/drivers pool
	// workers inside each delta evaluation) — few large-n searchers get
	// deep per-Apply parallelism, many searchers get one goroutine each
	// — with drivers·intra ≤ Workers, so the budget never oversubscribes.
	// It does not affect any result and is deliberately excluded from
	// checkpoints.
	Workers int `json:"-"`

	// TimeEvals records a wall-clock histogram of delta-evaluation
	// latencies (Result.EvalNS). Volatile by nature, it is excluded
	// from checkpoints and never influences search decisions.
	TimeEvals bool `json:"-"`
}

// WithDefaults fills unset fields with usable values: 4 searchers, 8
// epochs of 500 iterations, greedy-with-sideways acceptance (temperature
// 0), resync every 256 accepted swaps, serial execution.
func (p Params) WithDefaults() Params {
	if p.Searchers <= 0 {
		p.Searchers = 4
	}
	if p.Epochs <= 0 {
		p.Epochs = 8
	}
	if p.Iters <= 0 {
		p.Iters = 500
	}
	if p.Cooling <= 0 || p.Cooling > 1 {
		p.Cooling = 0.85
	}
	if p.ResyncEvery < 0 {
		p.ResyncEvery = 0
	} else if p.ResyncEvery == 0 {
		p.ResyncEvery = 256
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	return p
}

// EpochStat is one point of the best-cost trajectory, recorded at each
// serial barrier.
type EpochStat struct {
	Epoch    int     `json:"epoch"`
	BestCost int64   `json:"best_cost"`
	BestASPL float64 `json:"best_aspl"`
	Proposed int64   `json:"proposed"`
	Accepted int64   `json:"accepted"`
}

// Counters aggregates searcher telemetry; all values are deterministic.
type Counters struct {
	Proposed     int64 `json:"proposed"`
	Accepted     int64 `json:"accepted"`
	Invalid      int64 `json:"invalid"` // proposals rejected by CanSwap
	Evals        int64 `json:"evals"`
	DirtyTotal   int64 `json:"dirty_total"`
	FullRebuilds int64 `json:"full_rebuilds"`
	Resyncs      int64 `json:"resyncs"`
	Drift        int64 `json:"drift"` // resyncs that found divergence (must stay 0)

	// DistsBytes is the largest delta-oracle probe of any searcher, as
	// n·|region|: its distances at one byte each (graph.DeltaStats). Max-
	// merged, not summed, and a pure function of the swap sequence, so it
	// survives checkpoint/resume exactly.
	DistsBytes int64 `json:"dists_bytes"`
}

func (c *Counters) add(o Counters) {
	c.Proposed += o.Proposed
	c.Accepted += o.Accepted
	c.Invalid += o.Invalid
	c.Evals += o.Evals
	c.DirtyTotal += o.DirtyTotal
	c.FullRebuilds += o.FullRebuilds
	c.Resyncs += o.Resyncs
	c.Drift += o.Drift
	c.DistsBytes = max(c.DistsBytes, o.DistsBytes)
}

// Result is the outcome of a run: the best graph found, its exact
// statistics (recomputed from scratch, not trusted from the delta
// state), and the run telemetry.
type Result struct {
	Best       *graph.Graph
	BestCost   int64
	Stats      graph.PathStats
	Trajectory []EpochStat
	Counters   Counters

	// EvalNS is the delta-evaluation latency histogram, present only
	// when Params.TimeEvals was set; merged across searchers in id
	// order.
	EvalNS *obs.Histogram
}

// searcher is one annealer: an editable graph under DeltaStats, a
// private rng stream, and the current/best costs.
type searcher struct {
	id          int
	d           *graph.DeltaStats
	rng         splitmix
	cost        int64
	bestCost    int64
	bestEdges   [][2]int32
	bestShared  bool // bestEdges is held elsewhere too: the next best goes to a new buffer
	atBest      bool // the current graph is bestEdges: set by a strict improvement, cleared by any other accepted move
	sinceResync int
	ctr         Counters
	evalNS      *obs.Histogram // nil unless Params.TimeEvals
}

// Engine drives a deterministic multi-searcher run epoch by epoch. It is
// not safe for concurrent use; one Engine per run.
type Engine struct {
	p         Params
	name      string
	n         int
	searchers []*searcher
	bestCost  int64
	bestEdges [][2]int32
	bestOwner int // index of the searcher that supplied bestEdges; -1 after Restore
	epoch     int
	traj      []EpochStat

	// Workers-budget split: drivers goroutines run searchers, each
	// holding one intra-wide EvalPool for its delta evaluations.
	drivers int
	intra   int
	pools   []*graph.EvalPool // one per driver; pools[w] belongs to driver w
}

// splitWorkers divides the Workers budget between searcher drivers and
// intra-evaluation pool width: searcher-level parallelism is the scarce
// axis (bounded by Searchers), so it is filled first and the remaining
// budget deepens each evaluation. drivers·intra ≤ workers always, so a
// budget of GOMAXPROCS never oversubscribes the machine — pool workers
// run inside an Apply while their driver blocks on it, never alongside.
func splitWorkers(workers, searchers int) (drivers, intra int) {
	if workers < 1 {
		workers = 1
	}
	drivers = min(workers, searchers)
	if drivers < 1 {
		drivers = 1
	}
	return drivers, workers / drivers
}

// WorkerSplit reports the effective Workers-budget split: how many
// goroutines drive searchers and how many pool workers each delta
// evaluation shards across (drivers·intra ≤ Params.Workers).
func (e *Engine) WorkerSplit() (drivers, intra int) { return e.drivers, e.intra }

// initPools materializes the budget split. Pools are passive (no
// goroutines at rest), so engines need no teardown.
func (e *Engine) initPools() {
	e.drivers, e.intra = splitWorkers(e.p.Workers, e.p.Searchers)
	e.pools = make([]*graph.EvalPool, e.drivers)
	for i := range e.pools {
		e.pools[i] = graph.NewEvalPool(e.intra)
	}
}

// New builds an engine searching from the given start graph. The graph
// must be connected-agnostic but loop-free and have at least two edges
// (2-opt needs two distinct edges to exchange).
func New(start *graph.Graph, p Params) (*Engine, error) {
	p = p.WithDefaults()
	if start.M() < 2 {
		return nil, fmt.Errorf("search: start graph %q has %d edges; 2-opt needs at least 2", start.Name(), start.M())
	}
	if start.NumLoops() > 0 {
		return nil, fmt.Errorf("search: start graph %q has self-loops", start.Name())
	}
	e := &Engine{p: p, name: start.Name(), n: start.N()}
	e.initPools()
	// Construction runs on this goroutine, so sharing pool 0 across the
	// initial build and its copies is safe.
	d := graph.NewDeltaStatsPool(start, e.pools[0])
	e.bestCost = costOf(d, e.n)
	e.bestEdges = appendEdges(nil, d.Graph())
	for id := 0; id < p.Searchers; id++ {
		if id > 0 {
			d = e.searchers[0].d.Clone(e.pools[0])
		}
		s := &searcher{id: id, d: d, rng: newSplitmix(p.Seed, id), cost: e.bestCost, bestCost: e.bestCost,
			bestEdges: e.bestEdges, bestShared: true, atBest: true}
		if p.TimeEvals {
			s.evalNS = &obs.Histogram{}
		}
		e.searchers = append(e.searchers, s)
	}
	return e, nil
}

// costOf is the integer annealing objective of the current graph state.
func costOf(d *graph.DeltaStats, n int) int64 {
	sum, pairs := d.SumPairs()
	missing := int64(n)*int64(n-1) - pairs
	return sum + missing*int64(n)
}

// appendEdges appends a graph's edge set to dst as sorted (u < v) int32
// pairs, the form Graph.Edges returns.
func appendEdges(dst [][2]int32, g *graph.Graph) [][2]int32 {
	dst = slices.Grow(dst, g.M())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				dst = append(dst, [2]int32{int32(u), v})
			}
		}
	}
	return dst
}

// Epoch returns the number of completed epochs.
func (e *Engine) Epoch() int { return e.epoch }

// Params returns the engine's effective (defaulted) parameters.
func (e *Engine) Params() Params { return e.p }

// Name returns the start graph's name; N its vertex count.
func (e *Engine) Name() string { return e.name }
func (e *Engine) N() int       { return e.n }

// temperature at the current epoch: geometric cooling from InitTemp.
func (e *Engine) temperature() float64 {
	if e.p.InitTemp <= 0 {
		return 0
	}
	return e.p.InitTemp * math.Pow(e.p.Cooling, float64(e.epoch))
}

// Run advances the engine to Params.Epochs completed epochs (a no-op if
// already there, which is what makes checkpoint round-trips byte-stable)
// and returns the result.
func (e *Engine) Run() *Result {
	for e.epoch < e.p.Epochs {
		e.runEpoch()
	}
	return e.result()
}

// runEpoch runs every searcher for Iters proposals — across the
// budget's driver goroutines, each lending its private EvalPool to
// whichever searcher it currently runs — and then performs the serial
// barrier: aggregate in id order, update the global best, restart the
// worst searcher from the global best, and record the trajectory point.
// It returns the restarted searcher, if any, and whether its state was
// copied from a searcher at the global best rather than rebuilt.
func (e *Engine) runEpoch() (restarted *searcher, copied bool) {
	temp := e.temperature()
	if e.pools == nil {
		e.initPools()
	}
	if e.drivers <= 1 {
		for _, s := range e.searchers {
			s.d.SetPool(e.pools[0])
			s.runEpoch(e.p.Iters, temp, e.p.ResyncEvery, e.n)
		}
	} else {
		var next atomic.Int32
		var wg sync.WaitGroup
		for w := 0; w < e.drivers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(e.searchers) {
						return
					}
					// Pool w is owned by this driver: a searcher uses it
					// only while this goroutine runs it serially.
					e.searchers[i].d.SetPool(e.pools[w])
					e.searchers[i].runEpoch(e.p.Iters, temp, e.p.ResyncEvery, e.n)
				}
			}(w)
		}
		wg.Wait()
	}
	e.epoch++

	// Serial barrier, ascending id order throughout.
	var proposed, accepted int64
	for i, s := range e.searchers {
		proposed += s.ctr.Proposed
		accepted += s.ctr.Accepted
		if s.bestCost < e.bestCost {
			e.bestCost = s.bestCost
			e.bestEdges, e.bestOwner = s.bestEdges, i
			s.bestShared = true // the engine holds it now
		}
	}
	// Best-so-far exchange: the currently worst searcher (highest cost,
	// highest id on ties) restarts from the global best.
	worst := e.searchers[0]
	for _, s := range e.searchers[1:] {
		if s.cost >= worst.cost {
			worst = s
		}
	}
	if worst.cost > e.bestCost {
		// The barrier is serial, so pool 0 is free to shard a rebuild;
		// the next epoch re-points the searcher at its driver's pool.
		if e.bestOwner >= 0 && e.searchers[e.bestOwner].atBest {
			worst.d, copied = e.searchers[e.bestOwner].d.Clone(e.pools[0]), true
		} else {
			worst.d = graph.NewDeltaStatsPool(buildFromEdges(e.name, e.n, e.bestEdges), e.pools[0])
		}
		worst.cost = costOf(worst.d, e.n)
		worst.atBest = false
		restarted = worst
	}
	bestASPL := 0.0
	if pairs := int64(e.n) * int64(e.n-1); pairs > 0 {
		// Exact only for connected bests; the cost still orders
		// disconnected ones correctly via the missing-pair penalty.
		bestASPL = float64(e.bestCost) / float64(pairs)
	}
	e.traj = append(e.traj, EpochStat{
		Epoch:    e.epoch,
		BestCost: e.bestCost,
		BestASPL: bestASPL,
		Proposed: proposed,
		Accepted: accepted,
	})
	return restarted, copied
}

// buildFromEdges reconstructs a graph from an edge snapshot.
func buildFromEdges(name string, n int, edges [][2]int32) *graph.Graph {
	b := graph.NewBuilder(name, n)
	for _, e := range edges {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	return b.Build()
}

// result finalizes the run: the best graph is rebuilt from its edge
// snapshot and its statistics recomputed from scratch.
func (e *Engine) result() *Result {
	r := &Result{
		Best:       buildFromEdges(e.name+"-best", e.n, e.bestEdges),
		BestCost:   e.bestCost,
		Trajectory: append([]EpochStat(nil), e.traj...),
	}
	r.Stats = r.Best.AllPairsStats()
	for _, s := range e.searchers {
		r.Counters.add(s.ctr)
		if s.evalNS != nil {
			if r.EvalNS == nil {
				r.EvalNS = &obs.Histogram{}
			}
			r.EvalNS.Merge(s.evalNS)
		}
	}
	return r
}

// runEpoch executes iters proposals on this searcher.
func (s *searcher) runEpoch(iters int, temp float64, resyncEvery, n int) {
	g := s.d.Graph()
	for i := 0; i < iters; i++ {
		s.ctr.Proposed++
		sw := proposeSwap(g, &s.rng)
		if !s.d.CanSwap(sw) {
			s.ctr.Invalid++
			continue
		}
		if s.evalNS != nil {
			t0 := time.Now()
			s.d.Apply(sw)
			s.evalNS.Observe(time.Since(t0).Nanoseconds())
		} else {
			s.d.Apply(sw)
		}
		newCost := costOf(s.d, n)
		delta := newCost - s.cost
		accept := delta <= 0
		if !accept && temp > 0 {
			accept = s.rng.float64() < math.Exp(-float64(delta)/temp)
		}
		if !accept {
			s.d.Revert()
			continue
		}
		s.ctr.Accepted++
		s.cost = newCost
		s.atBest = newCost < s.bestCost
		if s.atBest {
			s.bestCost = newCost
			if s.bestShared {
				s.bestEdges, s.bestShared = nil, false
			}
			s.bestEdges = appendEdges(s.bestEdges[:0], s.d.Graph())
		}
		if resyncEvery > 0 {
			s.sinceResync++
			if s.sinceResync >= resyncEvery {
				s.sinceResync = 0
				if s.d.Resync() {
					s.ctr.Drift++
				}
			}
		}
	}
	// Harvest the oracle's telemetry into the serializable counters, so
	// checkpoints carry it and a resumed run reports exactly what an
	// uninterrupted one would.
	s.ctr.Evals += s.d.Evals
	s.ctr.DirtyTotal += s.d.DirtyTotal
	s.ctr.FullRebuilds += s.d.FullRebuilds
	s.ctr.Resyncs += s.d.Resyncs
	s.ctr.DistsBytes = max(s.ctr.DistsBytes, s.d.DistsBytes)
	s.d.Evals, s.d.DirtyTotal, s.d.FullRebuilds, s.d.Resyncs = 0, 0, 0, 0
}

// proposeSwap draws a uniformly random ordered arc pair: each arc
// contributes an oriented edge, so all four orientations of an edge pair
// are equally likely. Validity (distinctness, non-parallel results) is
// checked by the caller via CanSwap.
func proposeSwap(g *graph.Graph, rng *splitmix) graph.Swap {
	c1 := rng.intn(g.NumChannels())
	c2 := rng.intn(g.NumChannels())
	u1 := arcOwner(g, c1)
	u2 := arcOwner(g, c2)
	return graph.Swap{A: int32(u1), B: int32(g.ChannelTo(c1)), C: int32(u2), D: int32(g.ChannelTo(c2))}
}

// arcOwner finds the vertex whose CSR window contains arc c: the first
// u whose window ends past c. FirstChannel(N()) is the total arc count,
// so the probe is in range for every u.
func arcOwner(g *graph.Graph, c int) int {
	return sort.Search(g.N(), func(u int) bool { return g.FirstChannel(u+1) > c })
}
