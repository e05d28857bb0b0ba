// Package faults implements the link-failure resilience experiment of
// §11.2 (Fig 14): random link removal sweeps measuring network diameter
// and average shortest-path length as functions of the failure ratio,
// plus the disconnection ratio (the failure fraction at which the network
// first disconnects). The paper runs 100 trials and reports the trial
// with the median disconnection ratio; this package reproduces that
// protocol with seeded determinism.
//
// Up to 100 trials run through one reusable sweeper. A trial's
// disconnection point costs one union-find pass over its removal order
// and builds no graph; only the sampled failure fractions of a trial
// whose curve is wanted rebuild a degraded subgraph, in place with
// graph.FilterEdgesScratch, and measure it with the bit-parallel BFS
// kernel. A full sweep allocates a small constant amount of memory
// regardless of trial count.
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"polarstar/internal/graph"
	"polarstar/internal/obs"
)

// validate rejects malformed sweep inputs up front — an empty host set,
// host indices outside the graph or listed twice, or a failure-fraction
// ladder that is not ascending within [0, 1] — so the sweeps fail with a
// descriptive error instead of panicking or silently measuring nonsense.
func validate(g *graph.Graph, hosts Hosts, fracs []float64) error {
	if hosts != nil && len(hosts) == 0 {
		return fmt.Errorf("faults: empty host set (nil means all routers)")
	}
	var seen []bool
	if hosts != nil {
		seen = make([]bool, g.N())
	}
	for _, h := range hosts {
		if h < 0 || h >= g.N() {
			return fmt.Errorf("faults: host %d outside the %d-router graph", h, g.N())
		}
		if seen[h] {
			return fmt.Errorf("faults: host %d listed more than once", h)
		}
		seen[h] = true
	}
	prev := -1.0
	for i, f := range fracs {
		if f < 0 || f > 1 {
			return fmt.Errorf("faults: failure fraction %g at index %d outside [0, 1]", f, i)
		}
		if f < prev {
			return fmt.Errorf("faults: failure fractions must be ascending (%g after %g)", f, prev)
		}
		prev = f
	}
	return nil
}

// Point is one sampled failure fraction of a trial.
type Point struct {
	FailFrac  float64
	Diameter  int32
	AvgPath   float64
	Connected bool
}

// Trial is one random link-failure scenario.
type Trial struct {
	Seed               int64
	DisconnectionRatio float64 // fraction of links removed at first disconnection
	Curve              []Point
}

// Hosts restricts distance measurements to a vertex subset (§11.2: for
// Fat-tree and Megafly only endpoint-holding routers count). Nil means
// all vertices.
type Hosts []int

// sweeper owns the reusable state of repeated fault trials on one graph.
type sweeper struct {
	g       *graph.Graph
	arcChan []int32    // e-th u<v edge -> channel id of its u→v arc
	ends    [][2]int32 // e-th u<v edge -> (u, v)
	order   []int32    // shuffled edge indices of the current trial
	rank    []int32    // channel id (u<v arc) -> removal position
	scratch graph.FilterScratch
	bitbfs  graph.BitBFSScratch // arena of the per-point degraded stats
	inHosts []bool
	parent  []int32 // union-find forest of disconnectAt
	nhosts  []int32 // per root: hosts in its component
}

func newSweeper(g *graph.Graph) *sweeper {
	sw := &sweeper{
		g:       g,
		arcChan: make([]int32, 0, g.M()),
		ends:    make([][2]int32, 0, g.M()),
		order:   make([]int32, g.M()),
		rank:    make([]int32, g.NumChannels()),
		parent:  make([]int32, g.N()),
		nhosts:  make([]int32, g.N()),
	}
	for u := 0; u < g.N(); u++ {
		base := g.FirstChannel(u)
		for k, w := range g.Neighbors(u) {
			if int(w) > u {
				sw.arcChan = append(sw.arcChan, int32(base+k))
				sw.ends = append(sw.ends, [2]int32{int32(u), w})
			}
		}
	}
	return sw
}

// find returns the root of v's component, halving the path behind it.
func (sw *sweeper) find(v int32) int32 {
	p := sw.parent
	for p[v] != v {
		p[v] = p[p[v]]
		v = p[v]
	}
	return v
}

// disconnectAt returns the smallest k ≥ 1 such that removing the first k
// edges of the current removal order leaves the hosts in more than one
// component: m+1 when even the edgeless graph cannot separate them (at
// most one host), 1 when the intact graph already does. It adds the
// edges back in reverse removal order to a union-find forest until one
// component holds every host.
func (sw *sweeper) disconnectAt(hosts Hosts) int {
	total := int32(len(hosts))
	if hosts == nil {
		total = int32(len(sw.parent))
	}
	if total <= 1 {
		return len(sw.order) + 1
	}
	for v := range sw.parent {
		sw.parent[v] = int32(v)
	}
	if hosts == nil {
		for v := range sw.nhosts {
			sw.nhosts[v] = 1
		}
	} else {
		clear(sw.nhosts)
		for _, h := range hosts {
			sw.nhosts[h] = 1
		}
	}
	for k := len(sw.order) - 1; k >= 0; k-- {
		e := sw.ends[sw.order[k]]
		a, b := sw.find(e[0]), sw.find(e[1])
		if a == b {
			continue
		}
		// No union by rank: path halving alone bounds a find by O(log n)
		// amortised, and the pass is a few percent of a median trial.
		sw.parent[b] = a
		sw.nhosts[a] += sw.nhosts[b]
		if sw.nhosts[a] == total {
			// With the first k edges removed the hosts are connected, and
			// with one more they are not.
			return k + 1
		}
	}
	return 1
}

// subgraph rebuilds (into the scratch CSR) the graph with the first k
// edges of the current removal order deleted. The result aliases the
// sweeper and is invalidated by the next subgraph call.
func (sw *sweeper) subgraph(k int) *graph.Graph {
	kk := int32(k)
	return sw.g.FilterEdgesScratch(&sw.scratch, func(c, _, _ int) bool {
		return sw.rank[c] >= kk
	})
}

// stats computes diameter and average path length restricted to host
// pairs of h, 64 BFS sources per bit-parallel traversal, plus the number
// of unreachable ordered host pairs. Sums are integers, so the results
// are bit-identical to the scalar one-source-at-a-time measurement the
// sweep used before.
func (sw *sweeper) stats(h *graph.Graph, hosts Hosts) (int32, float64, bool, int64) {
	if hosts == nil {
		s := h.AllPairsStats()
		return s.Diameter, s.AvgPath, s.Connected, int64(h.N())*int64(h.N()-1) - s.Pairs
	}
	if sw.inHosts == nil {
		sw.inHosts = make([]bool, h.N())
		for _, v := range hosts {
			sw.inHosts[v] = true
		}
	}
	var diam int32
	var sum, pairs int64
	var srcs [64]int32
	for base := 0; base < len(hosts); base += 64 {
		lanes := len(hosts) - base
		if lanes > 64 {
			lanes = 64
		}
		for i := 0; i < lanes; i++ {
			srcs[i] = int32(hosts[base+i])
		}
		st, _ := h.BitBFSBatch(srcs[:lanes], &sw.bitbfs, sw.inHosts, nil)
		for l := 0; l < lanes; l++ {
			if st.Ecc[l] > diam {
				diam = st.Ecc[l]
			}
			sum += st.Sum[l]
			pairs += st.Reached[l]
		}
	}
	// Every host reaches all len(hosts)−1 others iff the pair count is
	// full — the same connectivity verdict the scalar scan produced.
	full := int64(len(hosts)) * int64(len(hosts)-1)
	avg := 0.0
	if pairs > 0 {
		avg = float64(sum) / float64(pairs)
	}
	return diam, avg, pairs == full, full - pairs
}

// runTrial removes links of g in a seed-determined random order,
// sampling diameter and average path length among hosts at each failure
// fraction in fracs (which must be ascending). Sampling stops once the
// host set is disconnected; the disconnection ratio is exact. When mt is
// non-nil, the trial additionally counts sampled points whose diameter
// exceeds intactDiam (degraded points) and unreachable host pairs (lost
// pairs) — including at fractions past the disconnection point, where
// the plain curve stops measuring. The returned Trial is bit-identical
// with mt on or off: the extra stats passes read the same scratch
// subgraphs and never touch the trial RNG.
func (sw *sweeper) runTrial(hosts Hosts, seed int64, fracs []float64, mt *obs.FaultTrial, intactDiam int32) Trial {
	rng := rand.New(rand.NewSource(seed))
	m := len(sw.order)
	for i := range sw.order {
		sw.order[i] = int32(i)
	}
	rng.Shuffle(m, func(i, j int) { sw.order[i], sw.order[j] = sw.order[j], sw.order[i] })
	for p, e := range sw.order {
		sw.rank[sw.arcChan[e]] = int32(p)
	}

	tr := Trial{Seed: seed}
	disconnectAt := sw.disconnectAt(hosts)
	tr.DisconnectionRatio = float64(disconnectAt) / float64(m)
	if mt != nil {
		mt.Seed = seed
		mt.DisconnectionRatio = tr.DisconnectionRatio
	}

	for _, f := range fracs {
		k := int(f * float64(m))
		pt := Point{FailFrac: f}
		if connected := k < disconnectAt; connected || mt != nil {
			diam, avg, ok, lost := sw.stats(sw.subgraph(k), hosts)
			if connected {
				pt = Point{FailFrac: f, Diameter: diam, AvgPath: avg, Connected: ok}
			}
			mt.Sample(connected, diam, intactDiam, lost)
		}
		tr.Curve = append(tr.Curve, pt)
	}
	return tr
}

// MedianTrial runs `trials` independent scenarios and returns the one
// with the median disconnection ratio (the paper's reporting protocol).
func MedianTrial(g *graph.Graph, hosts Hosts, trials int, seed int64, fracs []float64) (Trial, error) {
	return MedianTrialObs(g, hosts, trials, seed, fracs, nil)
}

// MedianTrialObs is MedianTrial with telemetry: when fm is non-nil it
// records the intact diameter, one FaultTrial (seed + disconnection
// ratio) per ranked scenario in scenario order, and the fully sampled
// median trial's degraded-point and lost-pair counters. The returned
// Trial is identical with fm on or off. (Both names stay: bench/ calls
// MedianTrial.)
func MedianTrialObs(g *graph.Graph, hosts Hosts, trials int, seed int64, fracs []float64, fm *obs.FaultSweep) (Trial, error) {
	if trials < 1 {
		return Trial{}, fmt.Errorf("faults: trial count %d < 1", trials)
	}
	if err := validate(g, hosts, fracs); err != nil {
		return Trial{}, err
	}
	sw := newSweeper(g)
	var intactDiam int32
	if fm != nil {
		intactDiam, _, _, _ = sw.stats(g, hosts)
		fm.IntactDiameter = intactDiam
		fm.Trials = make([]obs.FaultTrial, 0, trials)
	}
	// Rank trials by disconnection ratio (cheap: no subgraph is built),
	// then compute the full curve for the median one.
	type ranked struct {
		seed  int64
		ratio float64
	}
	rs := make([]ranked, trials)
	for i := 0; i < trials; i++ {
		s := seed + int64(i)*6151
		t := sw.runTrial(hosts, s, nil, nil, 0)
		rs[i] = ranked{seed: s, ratio: t.DisconnectionRatio}
		if fm != nil {
			fm.Trials = append(fm.Trials, obs.FaultTrial{Seed: s, DisconnectionRatio: t.DisconnectionRatio})
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].ratio < rs[j].ratio })
	med := rs[len(rs)/2]
	var median *obs.FaultTrial
	if fm != nil {
		median = &obs.FaultTrial{}
		fm.Median = median
	}
	return sw.runTrial(hosts, med.seed, fracs, median, intactDiam), nil
}

// DefaultFracs is the failure-ratio ladder of Fig 14.
var DefaultFracs = []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65}
