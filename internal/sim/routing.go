package sim

import (
	"math/rand"

	"polarstar/internal/route"
)

// LiveFn reports whether the directed link u→v is currently usable; the
// fault-injection state installs one on every shard's routing clone so
// MIN/UGAL consult link liveness. nil means the network is healthy.
type LiveFn func(u, v int) bool

// pathLive reports whether every hop of a vertex path is live (trivially
// true for a nil LiveFn).
func pathLive(path []int, live LiveFn) bool {
	if live == nil {
		return true
	}
	for i := 0; i+1 < len(path); i++ {
		if !live(path[i], path[i+1]) {
			return false
		}
	}
	return true
}

// Min adapts a minimal routing engine to the simulator (§9.3 "MIN").
type Min struct {
	Engine route.Engine
	// Hops bounds minimal path lengths (diameter; 4 for the indirect
	// fat-tree/Megafly leaf-to-leaf paths).
	Hops int
	// Live, when set, invalidates paths crossing failed links: Path
	// returns buf unchanged so the engine's fault fallbacks (repaired
	// table, escape paths) take over. RNG consumption is unaffected.
	Live LiveFn
}

// Path implements Routing.
func (m Min) Path(buf []int, src, dst int, _ OccFn, rng *rand.Rand) []int {
	n0 := len(buf)
	buf = m.Engine.AppendPath(buf, src, dst, rng)
	if m.Live != nil && !pathLive(buf[n0:], m.Live) {
		return buf[:n0]
	}
	return buf
}

// MaxHops implements Routing.
func (m Min) MaxHops() int { return m.Hops }

// Clone implements Routing. Min is stateless (route engines are
// goroutine-safe for reads), so the value itself is returned.
func (m Min) Clone() Routing { return m }

// UGAL is load-balancing adaptive routing (§9.3): per packet it compares
// the minimal path against Samples random Valiant paths, scoring each
// candidate by (queue occupancy) × (path hops), and picks the best.
// Intermediates are drawn from Mids (all routers for direct topologies,
// leaf routers for indirect ones).
//
// Two congestion estimates are supported: UGAL-L (the paper's §9.3
// configuration) uses only the source router's local first-hop queue;
// UGAL-G (ablation) uses the maximum queue along the whole candidate
// path — an idealized global-information router.
//
// A UGAL value owns two internal path buffers (the incumbent and the
// candidate under evaluation) so per-packet path selection allocates
// nothing once the buffers have grown; it is therefore a pointer type and
// serves one simulator goroutine.
type UGAL struct {
	Min     route.Engine
	Mids    []int // candidate intermediate routers (nil: all 0..N-1)
	N       int   // router count
	Samples int   // Valiant samples per packet (paper: 4)
	Hops    int   // max hops of a Valiant path (2× minimal diameter)
	PktSize int   // flits per packet, for the zero-queue tie-break
	Global  bool  // UGAL-G: score with the max queue along the path
	// Live, when set, makes path selection liveness-aware: a live
	// candidate always beats a dead incumbent regardless of score, and
	// Path returns buf unchanged when every candidate crosses a failed
	// link. The route stream is read after Path only when it returns an
	// empty or dead path (see Path).
	Live LiveFn

	minRNGFree bool  // Min implements route.RNGFree (read when built)
	minWon     bool  // the last Path returned the minimal path
	bufA, bufB []int // incumbent / candidate scratch
}

// Path implements Routing. RNG consumption: the minimal path's draws,
// then per sample the intermediate draw and both legs' (routed even when
// one is empty; a Min that ignores rng skips a second leg that cannot
// win). The samples are skipped when the minimal path scores at its
// floor of one packet per hop (first-hop queue, or for UGAL-G every
// queue, empty) and, under Live, is non-empty and live (without Live,
// also when there is no path): MinEngine paths are shortest, so no
// candidate can score lower. The engine reseeds the route stream per
// packet and reads it after Path only when Path returns an empty or dead
// path (the fault plan's repair draw), which the exit never does.
func (u *UGAL) Path(buf []int, src, dst int, occ OccFn, rng *rand.Rand) []int {
	best := u.Min.AppendPath(u.bufA[:0], src, dst, rng)
	u.bufA = best
	u.minWon = true
	bestScore := u.score(best, occ)
	// An empty (unroutable-minimal) incumbent counts as live: candidates
	// then compete on score exactly as without Live, and the engine's
	// detour fallbacks handle the empty result.
	bestLive := pathLive(best, u.Live)
	if bestScore <= u.PktSize*max(len(best)-1, 0) && (u.Live == nil || len(best) > 0 && bestLive) {
		return append(buf, best...)
	}
	for s := 0; s < u.Samples; s++ {
		var mid int
		if u.Mids != nil {
			mid = u.Mids[rng.Intn(len(u.Mids))]
		} else {
			mid = rng.Intn(u.N)
		}
		if mid == src || mid == dst {
			continue
		}
		cand := u.Min.AppendPath(u.bufB[:0], src, mid, rng)
		u.bufB = cand
		n1 := len(cand)
		// The second leg adds at least one hop and can only raise the
		// queue a score reads: skip it when the first leg plus one hop
		// cannot beat a live incumbent.
		if u.minRNGFree && bestLive && (n1 == 0 || (u.queue(cand, occ)+u.PktSize)*n1 >= bestScore) {
			continue
		}
		cand = u.Min.AppendPath(cand, mid, dst, rng)
		u.bufB = cand
		if n1 == 0 || len(cand) == n1 {
			continue // a leg is unroutable: candidate invalid
		}
		// Drop the duplicated joint (cand[n1] repeats mid == cand[n1-1]).
		copy(cand[n1:], cand[n1+1:])
		cand = cand[:len(cand)-1]
		if bestLive {
			// Score first: the liveness walk only decides a winner.
			if sc := u.score(cand, occ); sc < bestScore && pathLive(cand, u.Live) {
				best, bestScore = cand, sc
				u.bufA, u.bufB = u.bufB, u.bufA
				u.minWon = false
			}
			continue
		}
		// A dead incumbent loses to any live candidate.
		if pathLive(cand, u.Live) {
			best, bestScore, bestLive = cand, u.score(cand, occ), true
		} else if sc := u.score(cand, occ); sc < bestScore {
			best, bestScore = cand, sc
		} else {
			continue
		}
		u.bufA, u.bufB = u.bufB, u.bufA
		u.minWon = false
	}
	if u.Live != nil && !bestLive {
		return buf // every candidate crosses a failed link
	}
	return append(buf, best...)
}

// score is (queue occupancy + one packet) × hop count: the packet's own
// serialization provides the minimal-path bias at zero load.
func (u *UGAL) score(path []int, occ OccFn) int {
	if len(path) < 2 {
		return 0
	}
	return (u.queue(path, occ) + u.PktSize) * (len(path) - 1)
}

// queue is the occupancy a score reads: UGAL-L the first hop's queue,
// UGAL-G the maximum along the path (len(path) >= 2).
func (u *UGAL) queue(path []int, occ OccFn) int {
	q := occ(path[0], path[1])
	if u.Global {
		for i := 1; i+1 < len(path); i++ {
			if o := occ(path[i], path[i+1]); o > q {
				q = o
			}
		}
	}
	return q
}

// MaxHops implements Routing.
func (u *UGAL) MaxHops() int { return u.Hops }

// Clone implements Routing: a copy with its own scratch buffers, sharing
// the read-only route engine and intermediate list.
func (u *UGAL) Clone() Routing {
	c := *u
	c.bufA, c.bufB = nil, nil
	return &c
}

// lanedRouting is the optional Routing extension for engines that spread
// packets over multiple virtual-channel lanes. The engine maps each lane
// to its own disjoint VC band (NewEngine sizes the ladder from
// LaneWidths), and routeShard records the chosen lane on the packet so
// arbitration clamps VC allocation to the lane's band.
type lanedRouting interface {
	Routing
	// LaneWidths returns the VC band width of every lane: entry 0 is the
	// minimal-path lane, entries 1.. the tree lanes. Width l must exceed
	// the hop count of any lane-l path PathLane returns.
	LaneWidths() []int
	// LaneEdges returns the edges lane l >= 1's paths stay on; lanes share none.
	LaneEdges(l int) [][2]int
	// PathLane is Path plus the index of the lane the path rides.
	PathLane(buf []int, src, dst int, occ OccFn, rng *rand.Rand) ([]int, int8)
}

// MultiPathRouting sprays packets across a minimal-path lane and k
// edge-disjoint spanning-tree lanes (route.MultiPath), choosing per
// packet with UGAL-style occupancy scoring: each live lane's candidate
// path is scored (first-hop queue + one packet) × hops and the cheapest
// lane wins, ties toward the lowest lane. Each tree's paths stay inside
// that tree and each lane gets a private VC band, so the composite
// stays deadlock-free (DESIGN.md §13). Under a fault plan the engine
// installs Live and health: demoted lanes drop out of the spray
// deterministically, and with every tree lane down the choice degenerates
// to the base engine alone — bit-identical to running it directly.
//
// A MultiPathRouting owns per-lane scratch, so it is a pointer type
// serving one simulator goroutine; Clone gives workers their own.
type MultiPathRouting struct {
	Base    Routing          // minimal or UGAL engine: lane 0
	MP      *route.MultiPath // tree lanes 1..k
	PktSize int              // flits per packet, for the zero-queue tie-break
	// Live, when set, filters tree-lane candidates to fully-live paths
	// (the base lane handles liveness itself). Installed by the fault
	// machinery with the base's Live; the route stream is read after
	// PathLane only when it returns an empty or dead path.
	Live LiveFn
	// health, when non-nil, exposes the per-lane demotion state: down
	// lanes are skipped before their paths are even built. Written only
	// in the engine's serial sections, read here during routing.
	health *laneHealth
	// repairPath, when set, supplies the degraded-graph minimal path for
	// the base lane when the primary engine's path is dead: the repaired
	// route then competes against the tree lanes on occupancy score
	// instead of the spray funneling every displaced packet onto the
	// (much longer) surviving trees. Installed by the fault machinery;
	// returns buf unchanged while no repair table exists.
	repairPath func(buf []int, src, dst int, rng *rand.Rand) []int
	// escapePath, when set, supplies the shortest live escape-tree path;
	// it joins the survival-mode contest (base lane unroutable) so
	// displaced traffic spreads over the escape trees and the surviving
	// lanes by occupancy instead of funneling onto one tree. Escape
	// paths ride the base lane's VC band, like detour paths.
	escapePath func(buf []int, src, dst int) []int

	bufA, bufB []int // winning / candidate scratch
}

// Path implements Routing via the base lane alone.
func (m *MultiPathRouting) Path(buf []int, src, dst int, occ OccFn, rng *rand.Rand) []int {
	return m.Base.Path(buf, src, dst, occ, rng)
}

// sprayStretch bounds how much longer than the base path a tree-lane
// candidate may be and still compete for load balancing. Tree paths run
// up to the hop cap (11 on a diameter-3 graph), so an unbounded
// occupancy contest leaks packets onto near-worst-case routes whenever
// the minimal queue bursts — and a handful of leaked packets saturates
// the shared tree root long before the minimal lane is actually out of
// capacity. When the base lane is unroutable the bound does not apply:
// any live tree path beats dropping the packet.
const sprayStretch = 2

// PathLane implements lanedRouting: the base path is always built first
// (fixing the RNG consumption regardless of lane health, with the
// repaired degraded-graph table standing in when the primary's path is
// dead), then each live tree lane competes on occupancy score. A minimal
// base path at its score floor wins outright: tree paths are no shorter
// and ties go to the lower lane. The route stream is read after PathLane
// only when it returns an empty or dead path.
func (m *MultiPathRouting) PathLane(buf []int, src, dst int, occ OccFn, rng *rand.Rand) ([]int, int8) {
	best := m.Base.Path(m.bufA[:0], src, dst, occ, rng)
	m.bufA = best
	bestScore := m.score(best, occ)
	if len(best) > 0 && m.baseMinimal() && bestScore <= m.PktSize*(len(best)-1) {
		return append(buf, best...), 0
	}
	if len(best) == 0 && m.repairPath != nil {
		best = m.repairPath(m.bufA[:0], src, dst, rng)
		m.bufA = best
		bestScore = m.score(best, occ)
	}
	lane := int8(0)
	haveBest := len(best) > 0
	// spill mode: the base lane is routable, so tree candidates are
	// optional load-balancing spills and the stretch bound applies.
	// Survival mode (base unroutable): any live tree path competes.
	spill := haveBest
	hopCap := len(best) - 1 + sprayStretch
	var w route.TreeWalk
	for l := 0; l < m.MP.TreeLanes(); l++ {
		if m.health != nil && !m.health.up[l] {
			continue
		}
		// Judge the walk on hops, stretch and score before its liveness
		// walk and copy: only a winner needs them.
		if !m.MP.WalkTree(&w, l, src, dst) {
			continue // lane skips this pair (off the tree or over its hop bound)
		}
		hops := w.Hops()
		if spill && hops > hopCap {
			continue // too much stretch to be a load-balancing spill
		}
		sc := (occ(src, w.At(1)) + m.PktSize) * hops
		if haveBest && sc >= bestScore || m.Live != nil && !w.Live(m.Live) {
			continue
		}
		best, bestScore, lane, haveBest = w.AppendTo(m.bufB[:0]), sc, int8(l+1), true
		m.bufA, m.bufB = best, m.bufA
	}
	if !spill && m.escapePath != nil {
		cand := m.escapePath(m.bufB[:0], src, dst)
		m.bufB = cand
		if n := len(cand); n > 0 && n <= MaxPathNodes {
			if sc := m.score(cand, occ); !haveBest || sc < bestScore {
				best, lane, haveBest = cand, 0, true
				m.bufA, m.bufB = m.bufB, m.bufA
			}
		}
	}
	if !haveBest {
		return buf, 0 // unroutable everywhere: the fault fallbacks take over
	}
	return append(buf, best...), lane
}

// baseMinimal reports whether the base lane's last path is a shortest
// one: always for MIN (MinEngine paths are shortest), for UGAL only when
// its minimal incumbent won.
func (m *MultiPathRouting) baseMinimal() bool {
	switch b := m.Base.(type) {
	case Min:
		return true
	case *UGAL:
		return b.minWon
	}
	return false
}

// score mirrors UGAL-L: (first-hop queue + one packet) × hop count.
func (m *MultiPathRouting) score(path []int, occ OccFn) int {
	if len(path) < 2 {
		return 0
	}
	return (occ(path[0], path[1]) + m.PktSize) * (len(path) - 1)
}

// LaneWidths implements lanedRouting.
func (m *MultiPathRouting) LaneWidths() []int {
	w := make([]int, 1+m.MP.TreeLanes())
	w[0] = m.Base.MaxHops() + 1
	for l := 0; l < m.MP.TreeLanes(); l++ {
		w[l+1] = m.MP.LaneMaxHops(l) + 1
	}
	return w
}

// LaneEdges implements lanedRouting: lane l is tree l-1.
func (m *MultiPathRouting) LaneEdges(l int) [][2]int { return m.MP.TreeEdges(l - 1) }

// MaxHops implements Routing: the longest path any lane can return.
func (m *MultiPathRouting) MaxHops() int {
	h := m.Base.MaxHops()
	for l := 0; l < m.MP.TreeLanes(); l++ {
		if lh := m.MP.LaneMaxHops(l); lh > h {
			h = lh
		}
	}
	return h
}

// Clone implements Routing: fresh scratch, own base clone, shared
// read-only tree structure.
func (m *MultiPathRouting) Clone() Routing {
	c := *m
	c.Base = m.Base.Clone()
	c.bufA, c.bufB = nil, nil
	return &c
}

// setLive installs liveness, lane health, and the repaired-base-path
// source on the adapter and its base engine; the fault machinery calls
// it on every shard clone.
func (m *MultiPathRouting) setLive(live LiveFn, health *laneHealth, repairPath func([]int, int, int, *rand.Rand) []int, escapePath func([]int, int, int) []int) {
	m.Live = live
	m.health = health
	m.repairPath = repairPath
	m.escapePath = escapePath
	switch b := m.Base.(type) {
	case Min:
		b.Live = live
		m.Base = b
	case *UGAL:
		b.Live = live
	}
}
