package sim

// Live fault injection: the engine-side state machine behind Params.Plan.
// All mutation happens in the serial sections of the cycle (applyFaults /
// injectRetries before generation, collectRetries / watchdog after
// commit), so the parallel phases only ever read liveness through
// faultState — the same ownership discipline that makes the rest of the
// cycle race-free and worker-count independent.
//
// Invariants the fault path maintains:
//
//   - Credit reclaim: a packet dropped while in flight on a dying channel
//     gives back the S flits of downstream credit its grant reserved, so
//     no healthy channel is starved by credits parked on a dead one.
//     Packets that already crossed a link before it died keep their
//     buffer and drain normally through the (live) downstream router.
//   - Deterministic retries: per-shard retry requests are drained in
//     fixed shard order into one serial heap keyed (cycle, sequence), and
//     re-injected packets draw their route RNG from a dedicated
//     descending counter — so retry traffic is bit-identical at any
//     worker count, exactly like fresh traffic.
//   - Graceful degradation: a network the plan has disconnected cannot
//     hang the run. Every undeliverable packet converges to one of the
//     loss buckets (retry budget, age timeout, stranded), and the
//     no-progress watchdog ends the run early with partial metrics once
//     nothing can move anymore.

import (
	"math/rand"

	"polarstar/internal/route"
)

// escapeTrees is the number of edge-disjoint spanning trees backing the
// escape router (arXiv:2403.12231): two trees survive any single link
// failure by construction.
const escapeTrees = 2

// retryEvent is one scheduled re-injection on the serial retry heap.
type retryEvent struct {
	when    int64 // cycle of re-injection
	seq     int64 // tie-break: schedule order
	ep, dst int32
	gen     int64 // original generation cycle (age timeout base)
	retries uint8 // retries already consumed including this one
}

// retryReq is a retry request journaled by a shard during the parallel
// phases, converted to a retryEvent in fixed shard order after commit.
type retryReq struct {
	ep, dst int32
	gen     int64
	retries uint8
}

// faultState is the live-fault extension of an Engine, allocated only
// when Params.Plan carries events (e.fs stays nil otherwise, keeping the
// healthy path bit-identical and allocation-free).
type faultState struct {
	e      *Engine
	plan   *Plan
	next   int // cursor into plan.Events
	policy RetryPolicy

	deadChan   []bool          // channel id -> link currently failed
	deadRouter []bool          // router -> currently failed
	linkDown   map[[2]int]bool // explicit link-down events (u<v), distinct from router kills

	base   *route.Table      // primary table of the routing engine (nil: analytic)
	repair *route.Table      // lazily cloned copy of base, patched as links die
	escape *route.TreeEscape // spanning-tree escape paths (always available)
	health *laneHealth       // per-lane demotion state (multipath routing only)

	// repairReadyAt models route recomputation as a convergence window:
	// every applied plan event pushes it Params.RepairDelay cycles into
	// the future, and until it passes the repair table is not consulted —
	// the "global repair stall" a single-table engine pays on every
	// topology change, and exactly what multipath lane failover avoids.
	// Zero RepairDelay (the default) keeps repair instantaneous.
	repairReadyAt int64

	retryHeap []retryEvent
	seq       int64
	retryCtr  int64 // descending route-RNG seeds for re-injected packets

	// No-progress watchdog.
	lastProgress int64
	stuck        int64
	done         bool
	doneAt       int64

	// Accounting (serial writes only).
	eventsApplied   int64
	droppedInFlight int64
	retried         int64
	lostRetries     int64
	lostTimeout     int64
	lostStranded    int64
}

// initFaults arms the engine with a non-empty fault plan: liveness maps,
// the escape router, and liveness-aware routing on every shard clone.
// Called from NewEngine after the shards exist.
func (e *Engine) initFaults(params Params) {
	fs := &faultState{
		e:          e,
		plan:       sortedPlan(params.Plan),
		policy:     params.Retry.normalized(),
		deadChan:   make([]bool, e.g.NumChannels()),
		deadRouter: make([]bool, e.g.N()),
		linkDown:   make(map[[2]int]bool),
		retryCtr:   -1,
	}
	fs.base = baseTable(e.routing)
	esc, err := route.NewTreeEscape(e.g, escapeTrees, params.Seed)
	if err != nil {
		esc = &route.TreeEscape{} // no spanning trees: escape always fails over
	}
	fs.escape = esc
	if mp, ok := e.routing.(*MultiPathRouting); ok {
		fs.health = newLaneHealth(mp.MP)
	}
	e.fs = fs
	for _, sh := range e.shards {
		switch r := sh.routing.(type) {
		case Min:
			r.Live = fs.linkLive
			sh.routing = r
		case *UGAL:
			r.Live = fs.linkLive
		case *MultiPathRouting:
			r.setLive(fs.linkLive, fs.health, fs.repairAppend, fs.escapeAppend)
		}
	}
}

// escapeAppend appends the shortest fully-live escape-tree path for
// (src, dst); the multipath spray's survival-mode candidate source.
func (fs *faultState) escapeAppend(buf []int, src, dst int) []int {
	return fs.escape.AppendPath(buf, src, dst, fs.linkLive)
}

// repairAppend appends the repaired-table minimal path for (src, dst),
// or returns buf unchanged while no damage has built a repair table yet.
// The table pointer is written only in the serial fault sections, so the
// parallel routing phases read it race-free.
func (fs *faultState) repairAppend(buf []int, src, dst int, rng *rand.Rand) []int {
	if !fs.repairUsable() {
		return buf
	}
	return fs.repair.AppendPath(buf, src, dst, rng)
}

// sortedPlan returns p with its events in cycle order: applyFaults and
// the event-horizon advance walk the list front to back and stop at the
// first not-yet-due event, so an out-of-order plan (hand-built; the
// generators normalize theirs) would silently defer events. Sorting
// into a private copy keeps the caller's Plan untouched.
func sortedPlan(p *Plan) *Plan {
	for i := 1; i < len(p.Events); i++ {
		if p.Events[i].Cycle < p.Events[i-1].Cycle {
			c := &Plan{Events: append([]FaultEvent(nil), p.Events...)}
			c.normalize()
			return c
		}
	}
	return p
}

// baseTable extracts the all-pairs table underlying a routing engine, if
// it has one: Min and UGAL over a route.Table get incremental degraded
// repair; analytic engines fall back to the spanning-tree escape alone.
func baseTable(r Routing) *route.Table {
	switch r := r.(type) {
	case Min:
		if t, ok := r.Engine.(*route.Table); ok {
			return t
		}
	case *UGAL:
		if t, ok := r.Min.(*route.Table); ok {
			return t
		}
	case *MultiPathRouting:
		return baseTable(r.Base)
	}
	return nil
}

// linkLive reports whether the directed link u→v is usable. Read by the
// parallel phases; written only by the serial applyFaults.
func (fs *faultState) linkLive(u, v int) bool {
	if fs.deadRouter[u] || fs.deadRouter[v] {
		return false
	}
	c := fs.e.channelID(u, v)
	return c >= 0 && !fs.deadChan[c]
}

// pathLiveChans reports whether every hop of a vertex path maps to a
// live channel (dead routers kill all their incident channels, so the
// channel check covers intermediate routers too).
func (fs *faultState) pathLiveChans(path []int) bool {
	for i := 0; i+1 < len(path); i++ {
		c := fs.e.channelID(path[i], path[i+1])
		if c < 0 || fs.deadChan[c] {
			return false
		}
	}
	return true
}

// repairUsable reports whether the repair table exists and has converged
// (the RepairDelay window after the last topology change has passed).
func (fs *faultState) repairUsable() bool {
	return fs.repair != nil && fs.e.now >= fs.repairReadyAt
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// killEdge marks both directed channels of (u, v) dead and patches the
// repair table incrementally. Reports whether the edge was live before.
func (fs *faultState) killEdge(u, v int) bool {
	cu := fs.e.channelID(u, v)
	if cu < 0 || fs.deadChan[cu] {
		return false
	}
	fs.deadChan[cu] = true
	fs.deadChan[fs.e.channelID(v, u)] = true
	switch {
	case fs.repair != nil:
		fs.repair.DropEdge(u, v)
	case fs.base != nil:
		fs.repair = fs.base.Clone()
		fs.repair.DropEdge(u, v)
	default:
		// Analytic primary (no table to clone): derive the repair table
		// from the wiring itself on first damage. The degraded graph is
		// the ground truth either way, and an all-min-paths table over it
		// guarantees every still-connected pair keeps a live minimal
		// route — without it, analytic specs black-hole any pair whose
		// canonical path, escape trees, and (multipath) surviving lanes
		// are all cut or out of hop range.
		fs.repair = route.NewTable(fs.e.g.RemoveEdges([][2]int{{u, v}}), route.AllMinPaths)
	}
	return true
}

func (fs *faultState) applyLinkDown(u, v int) bool {
	fs.linkDown[edgeKey(u, v)] = true
	return fs.killEdge(u, v)
}

func (fs *faultState) applyRouterDown(r int) bool {
	if fs.deadRouter[r] {
		return false
	}
	fs.deadRouter[r] = true
	killed := false
	for _, w := range fs.e.g.Neighbors(r) {
		killed = fs.killEdge(r, int(w)) || killed
	}
	return killed
}

// applyLinkUp / applyRouterUp clear the corresponding down state, then
// re-derive channel liveness and rebuild the repair table from scratch on
// the still-degraded graph (incremental repair only handles removals;
// repairs are rare enough that a full rebuild — reusing the slab — is the
// simpler correct move).
func (fs *faultState) applyLinkUp(u, v int) {
	delete(fs.linkDown, edgeKey(u, v))
	fs.refreshLiveness()
}

func (fs *faultState) applyRouterUp(r int) {
	if !fs.deadRouter[r] {
		return
	}
	fs.deadRouter[r] = false
	fs.refreshLiveness()
}

// refreshLiveness recomputes deadChan from the ground truth (explicit
// link-down set plus dead routers) and rebuilds the repair table on the
// resulting graph. Iteration follows g.Edges() order, so the rebuild is
// deterministic.
func (fs *faultState) refreshLiveness() {
	e := fs.e
	for i := range fs.deadChan {
		fs.deadChan[i] = false
	}
	var dead [][2]int
	for _, ed := range e.g.Edges() {
		u, v := ed[0], ed[1]
		if fs.linkDown[edgeKey(u, v)] || fs.deadRouter[u] || fs.deadRouter[v] {
			fs.deadChan[e.channelID(u, v)] = true
			fs.deadChan[e.channelID(v, u)] = true
			dead = append(dead, ed)
		}
	}
	if fs.repair != nil {
		fs.repair = route.NewTableInto(e.g.RemoveEdges(dead), fs.repair.Mode(), fs.repair.Slab())
	}
}

// dropInFlight drops every packet in flight toward a now-dead channel:
// the grant reserved S flits of that channel's downstream buffer, so the
// reclaim decrements occ/occSum by exactly S per packet (the
// credit-reclaim invariant), and the packet is source-retried. Serial, so
// the freed slab ids go straight back to the global free stack.
func (fs *faultState) dropInFlight(t int64) {
	e := fs.e
	S := int32(e.p.PacketFlits)
	for i := range e.mail {
		box := e.mail[i]
		if len(box) == 0 {
			continue
		}
		kept := box[:0]
		for j := range box {
			a := box[j]
			c := e.unitChan[a.unit]
			if fs.deadChan[c] {
				e.occ[a.unit] -= S
				e.occSum[c] -= S
				fs.droppedInFlight++
				e.mailDropped++
				p := e.pkts.at(a.id)
				fs.scheduleRetry(t, p.srcEP, p.dstEP, p.gen, p.retries)
				e.pkts.free = append(e.pkts.free, a.id)
				continue
			}
			kept = append(kept, a)
		}
		e.mail[i] = kept
	}
}

// detour validates a freshly routed path against current liveness and,
// when it is dead (or the primary router found none), tries the repaired
// table and then the spanning-tree escape paths. ok == false means the
// packet cannot be routed right now and must be source-retried.
func (fs *faultState) detour(sh *shardState, src, dst int, path []int) ([]int, bool) {
	if fs.deadRouter[src] || fs.deadRouter[dst] {
		return nil, false
	}
	if n := len(path); n > 0 && n <= MaxPathNodes && fs.pathLiveChans(path) {
		return path, true
	}
	if fs.repairUsable() {
		sh.escBuf = fs.repair.AppendPath(sh.escBuf[:0], src, dst, sh.rng)
		if n := len(sh.escBuf); n > 0 && n <= MaxPathNodes {
			return sh.escBuf, true
		}
	}
	sh.escBuf = fs.escape.AppendPath(sh.escBuf[:0], src, dst, fs.linkLive)
	if n := len(sh.escBuf); n > 0 && n <= MaxPathNodes {
		return sh.escBuf, true
	}
	return nil, false
}

// laneFailover re-routes a queued multipath packet whose next channel
// died onto a live tree lane with a strictly higher index, in place: the
// packet keeps its buffer and credit, only the remaining route (and lane
// tag) changes. Higher-only is the deadlock-freedom condition — the new
// lane's VC band sits strictly above every VC the packet can currently
// occupy, so VC indices still strictly increase along the spliced path.
// Runs inside arbitration: it writes only the record of the arbitrating
// router's queue head (the one place a head packet's path changes while it
// is queued, so the unit's head record u is refreshed here) and reads lane
// health and liveness written in the serial sections, so it is race-free
// and worker-count independent. Reports false when no higher live lane
// reaches the destination; the caller falls back to drop + source retry.
func (fs *faultState) laneFailover(sh *shardState, unit int32, u *unitState) bool {
	if fs.health == nil {
		return false
	}
	e := fs.e
	p := e.pkts.at(e.queues[unit].head)
	cur := int(e.unitHome[unit])
	dst := e.cfg.RouterOf(int(p.dstEP))
	mp := fs.health.mp
	for l2 := int(p.lane) + 1; l2 <= mp.TreeLanes(); l2++ {
		if !fs.health.up[l2-1] {
			continue
		}
		sh.escBuf = mp.AppendTreePath(sh.escBuf[:0], l2-1, cur, dst, fs.linkLive)
		path := sh.escBuf
		if len(path) == 0 || len(path)-1 > pktStride {
			continue // lane's tree path is out of bound or crosses a failure
		}
		e.setPath(p, path)
		p.lane = int8(l2)
		u.setHead(p, e.firstChannel(unit))
		if sh.met != nil && sh.met.laneFailover != nil {
			sh.met.laneFailover[l2]++
		}
		u.wake = e.now + 1
		return true
	}
	return false
}

// retryFrom journals a source retry for a packet dropped during
// arbitration (dead channel ahead, or destination router down). The
// journal is per shard; collectRetries serializes it.
func (fs *faultState) retryFrom(sh *shardState, id int32) {
	p := fs.e.pkts.at(id)
	sh.retryQ = append(sh.retryQ, retryReq{ep: p.srcEP, dst: p.dstEP, gen: p.gen, retries: p.retries})
}
