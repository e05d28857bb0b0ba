// Package sim is the cycle-level interconnect simulator used for the
// synthetic-traffic evaluation (§9): the substitute for BookSim.
//
// Model: input-queued routers with per-channel virtual-channel buffers,
// credit-based backpressure, virtual cut-through switching of fixed-size
// packets (4 flits, §9.4), per-cycle output arbitration with round-robin
// fairness, and per-endpoint injection/ejection channels. Deadlock
// freedom is structural: VC indices strictly increase along every
// packet's path (the allocator picks the least-loaded eligible VC while
// reserving headroom for the remaining hops), so the channel/VC
// dependency graph is acyclic. The VC count is MaxHops+1 — exactly the
// paper's 4 VCs for minimal routing on a diameter-3 topology.
//
// Each cycle is an explicit two-phase arbitrate→commit step over a fixed
// number of router shards: during arbitration every router reads only
// state committed by previous phases plus its own in-cycle grants, and
// cross-router effects (forwarded packets, credit releases) are recorded
// in per-shard journals applied in fixed shard order. Arbitration is
// therefore data-race-free across routers, and a run produces
// bit-identical Results at any worker count (Params.Workers) — the same
// discipline as graph.BitBFSBatch: fixed merge order, integer
// aggregation. See DESIGN.md §7 for the semantics and the
// deadlock-equivalence argument.
//
// Packet state lives in a slab of 32-byte records linked into queues
// (store.go), arbitration decides from a dense per-unit record of each
// queue's head (arbitrate.go) and cycles with no possible work are
// skipped outright by the event-horizon advance (horizon.go); DESIGN.md
// §10 argues why none of them can change a single Result bit.
package sim

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"polarstar/internal/graph"
	"polarstar/internal/obs"
	"polarstar/internal/traffic"
)

// MaxPathNodes bounds the router path length of a packet (Valiant paths
// on indirect topologies reach 9 nodes).
const MaxPathNodes = 12

// numShards is the fixed shard count of the two-phase cycle. It is
// independent of the worker count on purpose: journals are produced and
// applied in shard order, so the shard partition — not the workers that
// happen to process it — defines the results.
const numShards = 16

// Generation-calendar packing (cycle<<epBits | endpoint). epBits caps the
// endpoint count; the cycle field gets the remaining 39 value bits of an
// int64 (one bit stays as sign headroom). NewEngine rejects
// configurations outside either range instead of corrupting the heap.
const (
	epBits      = 24
	maxEndpoint = 1 << epBits
	maxCycle    = int64(1) << 39
)

// Params configures a simulation run.
type Params struct {
	PacketFlits   int   // flits per packet (paper: 4)
	BufFlitsPerVC int   // input buffer capacity per VC in flits (paper: 128/4 = 32)
	LinkLatency   int   // link traversal latency in cycles
	Warmup        int   // warmup cycles before measurement
	Measure       int   // measurement window in cycles
	Drain         int   // extra cycles to drain measured packets
	Seed          int64 // RNG seed
	// Workers is the number of goroutines driving one run's routing and
	// arbitration phases (<=1: serial, the reference path; capped at the
	// shard count). Results are bit-identical for any value.
	Workers int

	// Metrics, when non-nil, is filled with the run's telemetry: packet
	// and stall counters, the measured-latency histogram and per-channel
	// occupancy high-water marks. The engine sizes its slices in
	// NewEngine and merges per-shard accumulators in fixed shard order at
	// the end of Run. Collection never touches the RNG streams or any
	// simulation state, so Results are bit-identical with metrics on or
	// off, and the steady-state cycle stays allocation-free (both pinned
	// by tests).
	Metrics *obs.SimRun
	// MetricsInterval, when positive, additionally records cumulative
	// counters into Metrics.Series every MetricsInterval cycles (sampled
	// in the serial commit phase, so rows are worker-count independent).
	MetricsInterval int

	// Plan, when non-nil and non-empty, injects live faults during the
	// run: scripted link/router failures (and repairs) applied at their
	// cycles, with fault-aware re-routing, source retries under Retry,
	// and a no-progress watchdog (see faultstate.go). A nil or empty plan
	// leaves the healthy fast path untouched — results are bit-identical
	// to an engine built without the field.
	Plan *Plan
	// Retry bounds the source-retry behavior under Plan; the zero value
	// selects DefaultRetryPolicy. Ignored without an active plan.
	Retry RetryPolicy

	// Lanes is the spanning-tree lane count of the multipath routing
	// modes (MPMINMode/MPUGALMode): 0 selects the default of 3, and the
	// extractor may find fewer on sparse topologies. Ignored by the
	// single-table modes.
	Lanes int
	// RepairDelay models route recomputation under Plan as a convergence
	// window: after any applied fault event, the repaired all-pairs table
	// is unusable for this many cycles and dead-path traffic falls back
	// to escape paths and source retries — the global stall a single
	// routing table pays on every topology change. 0 (the default) keeps
	// repair instantaneous, preserving pre-existing results exactly.
	// Ignored without an active plan.
	RepairDelay int64
}

// DefaultParams mirrors the §9.4 configuration.
func DefaultParams(seed int64) Params {
	return Params{
		PacketFlits:   4,
		BufFlitsPerVC: 32,
		LinkLatency:   1,
		Warmup:        5000,
		Measure:       10000,
		Drain:         15000,
		Seed:          seed,
	}
}

// SetCycles rescales the cycle windows around a measurement window of
// `cycles`: warmup = cycles/2, drain = 3*cycles/2 (the -cycles shorthand
// of pssim and the psserve "cycles" field). cycles <= 0 keeps the
// current windows.
func (p *Params) SetCycles(cycles int) {
	if cycles > 0 {
		p.Warmup, p.Measure, p.Drain = cycles/2, cycles, 3*cycles/2
	}
}

// Routing chooses a router path for each packet at injection time.
type Routing interface {
	// Path appends the router path (src..dst inclusive) for a packet onto
	// buf and returns the extended slice (buf unchanged when unroutable).
	// occ exposes the local channel occupancy for adaptive decisions.
	// Implementations allocate nothing beyond growing buf and any
	// internal scratch, so steady-state packet injection is heap-free.
	Path(buf []int, src, dst int, occ OccFn, rng *rand.Rand) []int
	// MaxHops bounds the number of links of any returned path; it sizes
	// the VC array.
	MaxHops() int
	// Clone returns an independent instance for a parallel worker.
	// Engines with internal scratch must not share it across goroutines;
	// stateless adapters may return themselves.
	Clone() Routing
}

// OccFn reports the queued flits on the directed channel u→v (summed
// over VCs).
type OccFn func(u, v int) int

// inflight is one packet traversing a link through the mail rings: the
// slab id plus the destination queue unit. 8 bytes — the whole cross-
// shard handoff.
type inflight struct {
	id   int32 // packet id into Engine.pkts
	unit int32 // destination queue unit
}

// Engine is one simulator instance bound to a topology, routing and
// traffic pattern.
type Engine struct {
	p       Params
	g       *graph.Graph
	routing Routing
	pattern traffic.Pattern
	cfg     traffic.Config
	vcs     int
	workers int

	// Lane → VC band mapping. With a plain Routing engine laneCount is 1
	// and the single band spans the whole ladder, making the band-clamped
	// VC arithmetic in tryForward bit-identical to the classic bounds.
	// With a lanedRouting engine each lane owns a disjoint band: paths
	// never leave their lane, so every band is an independent acyclic VC
	// ladder and the composite stays deadlock-free (DESIGN.md §13).
	laneCount int
	laneBase  []int32 // lane -> first VC of its band
	laneEnd   []int32 // lane -> one past the last VC of its band
	chanLane  []int8  // channel -> tree lane owning its edge, 0 for none (nil: single-lane)

	// pkts is the packet slab; every queue and mail ring below holds int32
	// ids into it. See store.go for the id lifecycle and its
	// serial-section free-list discipline.
	pkts pktStore

	// Channels are the graph's dense directed-channel ids: channel
	// graph.FirstChannel(r)+k is r → its k-th neighbor. All per-channel
	// state is written only by the channel's source router during
	// arbitration (occ decrements are journaled to commit), which is what
	// makes the arbitration phase race-free.
	busy   []int64 // channel id -> busy-until cycle
	occSum []int32 // channel id -> occ summed over its units (Occupancy fast path)

	// chanSlot densifies ChannelID: (u*n+v) -> v's adjacency slot at u,
	// 0xff when {u,v} is no edge; the channel is FirstChannel(u)+slot.
	// Path→channel resolution and UGAL occupancy scoring perform one
	// lookup per hop per packet — tens of millions per run — so the n²
	// bytes (1.1 MB for the Table-3 PolarStar) beat the per-call binary
	// search. nil above the size cap (huge design-space graphs). Slots
	// stay below 0xff: CheckDegree caps the degree at 255.
	chanSlot []uint8

	// Queues ("units"): per channel per VC input queues at the channel's
	// destination router, plus one injection queue per endpoint, numbered
	// router-major with each shard's block padded to a 64-unit boundary
	// (so the inActive bitset below is word-disjoint across shards). From
	// chanUnit[c] on, a channel's units carry band 0, then the band of its
	// tree lane (buildUnits). A unit costs 40 bytes: its entries in the
	// first five arrays and waiterNext. Padding's unitChan -1 equals
	// endpoint 0's ^0: only minVC == 0 marks injection queues.
	queues   []pktQueue
	units    []unitState // unit -> wake cycle and head-packet record (arbitrate.go)
	unitHome []int32     // unit -> router owning the queue
	unitChan []int32     // unit -> its channel; ^endpoint for injection queues (injEP), -1 for padding
	occ      []int32     // unit -> queued+reserved flits (credits in use; 0 off channels)
	chanUnit []int32     // channel -> unit of its VC 0
	injUnit  []int32     // endpoint -> its injection-queue unit

	// Per-router active unit lists with lazy deletion, and the per-shard
	// active-router worklists above them: a cycle touches only routers
	// with queued packets, not all N.
	active      [][]int32
	inActive    bitset // unit -> whether listed in active (word-disjoint per shard)
	routerShard []int8 // router -> owning shard (contiguous blocks)
	inWorklist  []bool // router -> whether listed in its shard's worklist

	// Wake-up scheduling, the one arbitration schedule: a stalled forward
	// attempt has no side effect beyond its stall counter, so the
	// arbitration loop skips a unit until the cycle its blocker can
	// actually clear: the busy-until timestamp it stalled on, or — for
	// credit stalls — the first commit that releases credit on its head
	// packet's channel (tracked by an intrusive per-channel waiter list).
	// Wakes are conservative, so grants happen at exactly the cycles an
	// attempt-every-cycle engine would make them. The schedule is the same
	// observed or not: telemetry credits the skipped attempts when the
	// parked span ends (spans, below), and a fault plan re-arms every
	// parked unit on the cycles it applies events (unparkAll), the only
	// place blocker state changes outside arbitration and commit. A unit's
	// own wake cycle sits next to its head record, in units[].wake.
	routerWake []int64 // router -> min wake over its active units
	waiterHead []int32 // channel -> first credit-waiting unit (-1: none)
	waiterNext []int32 // unit -> next credit-waiting unit (-1: end)

	ejBusy  []int64 // endpoint -> ejection-channel busy-until
	injBusy []int64 // endpoint -> injection serialization

	// mail[(src*numShards+dst)*ringLen+slot] holds packets forwarded by
	// shard src to queues owned by shard dst, arriving at cycle slot.
	// Written only by src (during its arbitration), drained only by dst
	// (at the start of its next arbitration) in fixed src order.
	mail    [][]inflight
	ringLen int

	// mailDropped counts in-flight packets removed from the rings by the
	// serial fault path; together with the per-shard mailOut/mailIn
	// counters it lets the event-horizon check know whether any packet is
	// still traversing a link without scanning the rings.
	mailDropped int64
	skipped     int64 // idle cycles the event-horizon advance never stepped

	now       int64
	rng       *rand.Rand // serial generation stream: calendar gaps + destinations
	measuring bool       // current cycle inside the measurement window

	shards [numShards]*shardState

	// Generation calendar: a binary min-heap of (cycle<<epBits | endpoint)
	// events, equivalent to per-cycle Bernoulli draws but skipping idle
	// endpoints (geometric gaps).
	genHeap []int64
	logQ    float64 // ln(1 - pktProb), < 0

	pktCtr         int64 // injection counter: per-packet route-RNG seeds
	backlogMeasEnd int   // injection-queue backlog when measurement ended
	generatedMeas  int64

	// Telemetry (nil/0 when the run is unobserved). occHWM aliases
	// met.OccHWM; each channel's mark is written only by the channel's
	// source-router shard during arbitration, so collection is race-free
	// by the same ownership argument as the occupancy arrays.
	met         *obs.SimRun
	metInterval int64
	occHWM      obs.ChannelHWM
	spans       []parkSpan // unit -> stall span of its current park (see settleSpan)

	// fs is the live fault-injection state, non-nil only when Params.Plan
	// carries events. Every fault hook on the hot path is gated on it, so
	// plan-less runs take the identical (and allocation-free) code path
	// they always did.
	fs *faultState

	pool workerPool
}

// shardState is the per-shard slice of the engine: the active-router
// worklist, the injection/forward/release journals, the packet-id
// allocation cache and freed journal, the routing engine clone with its
// scratch, and the metric accumulators. Every field is touched only by
// the shard that owns it during the parallel phases; journals are
// drained in fixed shard order.
type shardState struct {
	routers  []int32      // active-router worklist (lazy deletion via inWorklist)
	pending  []pendingInj // packets generated this cycle on this shard's routers
	releases []int32      // units whose credit reservation frees at commit

	// Packet-id slab interface: freeIDs is the allocation cache refilled
	// serially before the routing phase; freed collects ids released
	// during arbitration, drained serially at commit.
	freeIDs []int32
	freed   []int32

	// mailOut/mailIn count packets this shard posted into / drained from
	// the mail rings; their fixed-order serial sum is the in-flight count
	// the event-horizon advance checks.
	mailOut int64
	mailIn  int64

	routing Routing
	laned   lanedRouting // routing when it spreads packets over VC lanes, else nil
	rngSrc  splitmix
	rng     *rand.Rand
	pathBuf []int
	occFn   OccFn

	// Fault-mode journals/scratch (untouched when the engine has no plan).
	retryQ []retryReq // source retries requested during this shard's phases
	escBuf []int      // detour path scratch

	// lostPkts counts packets lost at routing time (unroutable or
	// over-budget paths). Unlike the met counters it is always on: Result
	// reports losses even for unobserved runs.
	lostPkts int64

	// Metrics, merged in shard order after the run.
	deliveredAll   int64
	deliveredMeas  int64
	latencySumMeas int64
	latencyMax     int64

	// Telemetry accumulators (nil when the run is unobserved).
	met *shardMetrics
}

// shardMetrics is the per-shard telemetry slice: counters and a latency
// histogram owned by one shard during the parallel phases, merged into
// the run's obs.SimRun in fixed shard order at the end. All storage is
// sized at engine construction, so recording allocates nothing.
type shardMetrics struct {
	injected int64            // packets routed and enqueued at their source
	lost     int64            // unroutable or over-budget paths
	stall    [numStalls]int64 // failed forward attempts by reason
	creditVC []int64          // credit stalls keyed by the packet's lowest eligible VC
	lat      obs.Histogram

	// Per-lane counters, sized laneCount (nil on single-lane engines):
	// index 0 is the minimal band, 1.. the tree lanes.
	laneChosen    []int64
	laneDelivered []int64
	laneFailover  []int64 // in-flight reroutes ONTO the lane
}

func (m *shardMetrics) stalls() (n int64) {
	for _, s := range m.stall {
		n += s
	}
	return n
}

// Reasons a forward attempt fails, in the order tryForward tests them.
const (
	stallNone = iota // no open span
	stallInject
	stallEject
	stallChannel
	stallCredit
	numStalls
)

// parkSpan is the telemetry of one unit between a failed forward attempt
// and its next attempt. The attempts an attempt-every-cycle engine would
// have failed in between are not executed; they are counted when the span
// is settled, from what the engine already knows about why the unit is
// parked (settleSpan has the argument). Allocated only for observed runs.
type parkSpan struct {
	from   int64 // attempts on cycles <= from are counted (chargeBusy may run it ahead)
	pos    int32 // index in the router's active list: rotation order at grant sites
	reason uint8
	vc     int8 // credit parks: lowest eligible VC, the CreditStallVC bucket
}

// NewEngine builds a simulator for graph g with the endpoint arrangement
// described by cfg. It panics with a descriptive error when the
// configuration overflows the generation calendar's packed
// (cycle<<epBits | endpoint) representation, or g has a router of more
// than 255 neighbours (CheckDegree) — hard structural limits that would
// otherwise corrupt results silently.
func NewEngine(params Params, g *graph.Graph, cfg traffic.Config, routing Routing, pattern traffic.Pattern) *Engine {
	cfg.Routers = g.N()
	if eps := cfg.Endpoints(); eps >= maxEndpoint {
		panic(fmt.Sprintf("sim: %d endpoints overflow the generation calendar's %d-bit endpoint field (max %d); shrink PerRouter or the host set",
			eps, epBits, maxEndpoint-1))
	}
	if total := int64(params.Warmup) + int64(params.Measure) + int64(params.Drain); total >= maxCycle {
		panic(fmt.Sprintf("sim: %d total cycles overflow the generation calendar's packed cycle field (max %d)",
			total, maxCycle-1))
	}
	if err := CheckDegree(g); err != nil {
		panic(err.Error())
	}
	e := &Engine{
		p:       params,
		g:       g,
		routing: routing,
		pattern: pattern,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(params.Seed)),
	}
	// The VC ladder is one disjoint band per lane, concatenated. A plain
	// Routing is one lane of one VC per possible link index plus a spare
	// that gives the strictly-increasing allocator room to spread load:
	// the paper's 4 VCs for MIN on a diameter-3 topology. Under a fault
	// plan band 0 widens to MaxPathNodes, since detour paths ride it.
	widths := []int{routing.MaxHops() + 1}
	if lr, ok := routing.(lanedRouting); ok {
		widths = lr.LaneWidths()
	}
	widths[0] = max(widths[0], 1)
	if !params.Plan.Empty() {
		widths[0] = max(widths[0], MaxPathNodes)
	}
	e.laneCount = len(widths)
	e.laneBase = make([]int32, e.laneCount)
	e.laneEnd = make([]int32, e.laneCount)
	for l, w := range widths {
		e.laneBase[l] = int32(e.vcs)
		e.vcs += w
		e.laneEnd[l] = int32(e.vcs)
	}
	if e.vcs > 126 {
		panic(fmt.Sprintf("sim: %d VCs overflow the int8 VC ladder (max 126); use fewer or shallower lanes", e.vcs))
	}
	e.workers = params.Workers
	if e.workers < 1 {
		e.workers = 1
	}
	if e.workers > numShards {
		e.workers = numShards
	}
	n := g.N()
	nChans := g.NumChannels()
	e.busy = make([]int64, nChans)
	e.occSum = make([]int32, nChans)
	if n*n <= 1<<22 { // ≤ 4 MB; covers every Table-3 configuration
		e.chanSlot = bytes.Repeat([]byte{0xff}, n*n)
		for u := 0; u < n; u++ {
			for k, w := range g.Neighbors(u) {
				e.chanSlot[u*n+int(w)] = uint8(k)
			}
		}
	}
	e.routerShard = make([]int8, n)
	for r := 0; r < n; r++ {
		e.routerShard[r] = int8(r * numShards / n)
	}
	e.buildUnits()
	e.active = make([][]int32, n)
	e.inActive = newBitset(len(e.queues))
	e.inWorklist = make([]bool, n)
	e.routerWake = make([]int64, n)
	e.waiterHead = make([]int32, nChans)
	e.waiterNext = make([]int32, len(e.queues))
	for i := range e.waiterHead {
		e.waiterHead[i] = -1
	}
	for i := range e.waiterNext {
		e.waiterNext[i] = -1
	}
	e.ejBusy = make([]int64, e.cfg.Endpoints())
	e.injBusy = make([]int64, e.cfg.Endpoints())
	e.ringLen = params.PacketFlits + params.LinkLatency + 2
	e.mail = make([][]inflight, numShards*numShards*e.ringLen)
	for s := 0; s < numShards; s++ {
		sh := &shardState{routing: routing.Clone()}
		if lr, ok := sh.routing.(lanedRouting); ok {
			sh.laned = lr
		}
		sh.rng = rand.New(&sh.rngSrc)
		sh.occFn = e.Occupancy
		e.shards[s] = sh
	}
	if params.Metrics != nil {
		e.initMetrics(params)
	}
	if !params.Plan.Empty() {
		e.initFaults(params)
	}
	e.pool.start(e)
	return e
}

// buildUnits lays out the queue units router-major: for each router (in
// shard order — routerShard blocks are contiguous by construction) its
// incoming channels' VC queues in ascending channel order, then its
// endpoints' injection queues, with every shard's block padded to a
// 64-unit boundary so the inActive bitset words are shard-disjoint.
// A channel gets band 0 and the band of the tree lane owning its edge,
// and no packet needs another: lane l >= 1 paths come only from tree
// l-1's walk (PathLane's WalkTree, laneFailover's AppendTreePath), and
// detour keeps them, since they pass Live == fs.linkLive (so
// pathLiveChans), have at most pktStride hops, and a dead endpoint
// router means a retry. Escape and repair paths ride band 0.
func (e *Engine) buildUnits() {
	n := e.g.N()
	nChans := e.g.NumChannels()
	eps := e.cfg.Endpoints()

	// Incoming channels per router, ascending channel id.
	inOff := make([]int32, n+1)
	for c := 0; c < nChans; c++ {
		inOff[e.g.ChannelTo(c)+1]++
	}
	for r := 0; r < n; r++ {
		inOff[r+1] += inOff[r]
	}
	inCh := make([]int32, nChans)
	pos := make([]int32, n)
	copy(pos, inOff[:n])
	for c := 0; c < nChans; c++ {
		r := e.g.ChannelTo(c)
		inCh[pos[r]] = int32(c)
		pos[r]++
	}
	// Endpoints per router, ascending endpoint id.
	epOff := make([]int32, n+1)
	for ep := 0; ep < eps; ep++ {
		epOff[e.cfg.RouterOf(ep)+1]++
	}
	for r := 0; r < n; r++ {
		epOff[r+1] += epOff[r]
	}
	epList := make([]int32, eps)
	copy(pos, epOff[:n])
	for ep := 0; ep < eps; ep++ {
		r := e.cfg.RouterOf(ep)
		epList[pos[r]] = int32(ep)
		pos[r]++
	}

	maxUnits := nChans*int(e.laneEnd[0]) + eps + numShards*64
	if lr, ok := e.routing.(lanedRouting); ok {
		e.chanLane = make([]int8, nChans) // both directions of a tree-l edge: l
		for l := int8(1); int(l) < e.laneCount; l++ {
			edges := lr.LaneEdges(int(l))
			maxUnits += 2 * len(edges) * int(e.laneEnd[l]-e.laneBase[l])
			for _, ed := range edges {
				e.chanLane[e.channelID(ed[0], ed[1])], e.chanLane[e.channelID(ed[1], ed[0])] = l, l
			}
		}
	}
	e.unitHome = make([]int32, maxUnits)
	e.unitChan = make([]int32, maxUnits)
	e.occ = make([]int32, maxUnits)
	e.units = make([]unitState, maxUnits)
	e.queues = make([]pktQueue, maxUnits)
	for i := range e.units {
		e.units[i].next, e.queues[i].head = headEmpty, -1
	}
	e.chanUnit = make([]int32, nChans)
	e.injUnit = make([]int32, eps)

	next := int32(0)
	for r := 0; r < n; r++ {
		if r > 0 && e.routerShard[r] != e.routerShard[r-1] {
			for ; next%64 != 0; next++ {
				e.unitChan[next] = -1
				e.units[next].minVC = 1 // padding is no injection queue
			}
		}
		for _, c := range inCh[inOff[r]:inOff[r+1]] {
			e.chanUnit[c] = next
			l := int8(0)
			if e.chanLane != nil {
				l = e.chanLane[c]
			}
			for vc := int32(0); vc < e.laneEnd[l]; vc++ {
				if vc == e.laneEnd[0] {
					vc = e.laneBase[l] // band 0 done: on to lane l's
				}
				e.unitChan[next] = c
				e.units[next].minVC = int8(vc + 1)
				e.unitHome[next] = int32(r)
				next++
			}
		}
		for _, ep := range epList[epOff[r]:epOff[r+1]] {
			e.injUnit[ep] = next
			e.unitChan[next] = ^ep
			e.unitHome[next] = int32(r)
			next++
		}
	}
	e.unitHome = e.unitHome[:next]
	e.unitChan = e.unitChan[:next]
	e.occ = e.occ[:next]
	e.units = e.units[:next]
	e.queues = e.queues[:next]
}

// initMetrics sizes the telemetry storage once, before the first cycle:
// the per-channel occupancy marks, the per-shard counters and latency
// histograms, and the interval series at its exact final capacity. After
// this, every record on the hot path is a plain array update.
func (e *Engine) initMetrics(params Params) {
	m := params.Metrics
	e.met = m
	m.CreditStallVC = make([]int64, e.vcs)
	m.OccHWM = make(obs.ChannelHWM, e.g.NumChannels())
	e.occHWM = m.OccHWM
	e.spans = make([]parkSpan, len(e.queues))
	for _, sh := range e.shards {
		sh.met = &shardMetrics{creditVC: make([]int64, e.vcs)}
		if e.laneCount > 1 {
			sh.met.laneChosen = make([]int64, e.laneCount)
			sh.met.laneDelivered = make([]int64, e.laneCount)
			sh.met.laneFailover = make([]int64, e.laneCount)
		}
	}
	if params.MetricsInterval > 0 {
		e.metInterval = int64(params.MetricsInterval)
		m.Interval = params.MetricsInterval
		total := params.Warmup + params.Measure + params.Drain
		m.Series = make([]obs.IntervalRow, 0, total/params.MetricsInterval+2)
	}
}

// Occupancy implements OccFn over all VCs of channel u→v. During the
// routing phase the occupancy arrays are stable (grants and releases
// land in the arbitration and commit phases), so adaptive routing reads
// a consistent previous-cycle snapshot.
func (e *Engine) Occupancy(u, v int) int {
	c := e.channelID(u, v)
	if c < 0 {
		return 0
	}
	return int(e.occSum[c])
}

func (e *Engine) channelID(u, v int) int {
	if e.chanSlot == nil {
		return e.g.ChannelID(u, v)
	}
	slot := e.chanSlot[u*e.g.N()+v]
	if slot == 0xff {
		return -1
	}
	return e.g.FirstChannel(u) + int(slot)
}

// markActive lists a newly non-empty unit on its router, and the router
// on the owning shard's worklist. Callers are always the owning shard
// (or the serial sections), so no synchronization is needed.
func (e *Engine) markActive(unit int32, sh *shardState) {
	if !e.inActive.get(unit) {
		e.inActive.set(unit)
		r := e.unitHome[unit]
		if e.spans != nil {
			e.spans[unit].pos = int32(len(e.active[r]))
		}
		e.active[r] = append(e.active[r], unit)
		// A newly non-empty unit has a new head packet: attemptable now.
		e.units[unit].wake = 0
		e.routerWake[r] = 0
		if !e.inWorklist[r] {
			e.inWorklist[r] = true
			sh.routers = append(sh.routers, r)
		}
	}
}

// Run simulates a full warmup+measure+drain experiment at the offered
// load (flits per endpoint per cycle) and returns the metrics. An Engine
// is single-use: build a fresh one per run.
func (e *Engine) Run(load float64) Result {
	res, _ := e.RunContext(context.Background(), load)
	return res
}

// RunContext is Run with cooperative cancellation: the context's Done
// channel is polled every cancelCheckStride cycles, and a cancelled run
// stops the worker pool and returns ctx.Err() with a zero Result. A
// background context adds no overhead to the cycle loop (nil Done is
// never polled). Cancellation consumes the engine like a completed run.
func (e *Engine) RunContext(ctx context.Context, load float64) (Result, error) {
	if e.now != 0 {
		panic("sim: Engine.Run called twice; engines are single-use")
	}
	done := ctx.Done()
	total := int64(e.p.Warmup + e.p.Measure + e.p.Drain)
	e.initGeneration(load / float64(e.p.PacketFlits))
	for t := int64(0); t < total; t++ {
		if done != nil && t%cancelCheckStride == 0 {
			select {
			case <-done:
				// Consume the engine so the single-use guard still trips on
				// a second Run even when cancellation hit at t == 0.
				e.now = total
				e.pool.stop()
				return Result{}, ctx.Err()
			default:
			}
		}
		e.stepCycle(t)
		if e.fs != nil && e.fs.done {
			// The watchdog declared the run wedged: everything still queued
			// is counted stranded; skip the remaining drain cycles.
			total = t + 1
			break
		}
		if adv := e.horizonAdvance(t, total); adv > 0 {
			t += adv
			if e.fs != nil && e.fs.done {
				// The emulated watchdog fired inside the idle stretch.
				total = t + 1
				break
			}
		}
	}
	e.now = total
	e.pool.stop()
	return e.result(load), nil
}

// cancelCheckStride is how often RunContext polls its context: rare
// enough to stay invisible in profiles, frequent enough that a deadline
// lands within microseconds of wall time.
const cancelCheckStride = 256

// stepCycle advances the simulation by one cycle:
//
//  1. generation (serial: the calendar and the traffic pattern share one
//     RNG stream), queuing pending injections on their routers' shards,
//     then the serial refill of the per-shard packet-id caches;
//  2. the routing phase (parallel over shards): each shard routes its
//     pending packets with a per-packet-seeded RNG, resolves the path to
//     channel ids into a freshly allocated slab id, and enqueues it on
//     its injection queues;
//  3. the arbitration phase (parallel over shards): each shard drains
//     the packets other shards forwarded to it (in fixed shard order),
//     then arbitrates its active routers, writing only router-owned
//     state and journaling forwards, credit releases and freed ids;
//  4. commit (serial): journaled credit releases and freed packet ids
//     are applied in shard order, making them visible to the next cycle.
//
// In steady state (all queues, rings and scratch buffers at their
// high-water capacity) a cycle performs zero heap allocations — see the
// AllocsPerRun regression test.
func (e *Engine) stepCycle(t int64) {
	e.now = t
	e.measuring = e.measured(t)
	if e.fs != nil {
		e.applyFaults(t)
		e.injectRetries(t)
	}
	e.generate(t)
	e.refillIDs()
	e.pool.run(phaseRoute)
	e.pool.run(phaseArbitrate)
	e.commit(t)
	if e.fs != nil {
		e.collectRetries(t)
		e.watchdog(t)
	}
}

// measured reports whether cycle c lies inside the measurement window.
func (e *Engine) measured(c int64) bool {
	return c >= int64(e.p.Warmup) && c < int64(e.p.Warmup+e.p.Measure)
}

// Result aggregates one simulation run.
type Result struct {
	Load             float64
	AvgLatency       float64 // cycles, measured packets
	MaxLatency       int64
	DeliveredFrac    float64 // measured packets delivered before the horizon
	Throughput       float64 // flits of measure-window packets delivered by the horizon, per endpoint per measure cycle (generated load × DeliveredFrac)
	Backlog          int     // packets still queued at the horizon
	BacklogAtMeasEnd int     // packets queued when measurement ended
	Saturated        bool

	// Fault accounting. Lost is always filled (unroutable packets occur
	// on statically degraded topologies too); Dropped/Retried/
	// TerminatedEarly are nonzero only under an active fault plan.
	Lost            int64 // packets lost for good (unroutable, retry budget, age timeout, stranded)
	Dropped         int64 // packets dropped in flight on a dying link (then retried)
	Retried         int64 // source retries performed
	TerminatedEarly bool  // the no-progress watchdog ended the run before the horizon
}

func (e *Engine) result(load float64) Result {
	var deliveredMeas, latencySum, latencyMax int64
	for _, sh := range e.shards {
		deliveredMeas += sh.deliveredMeas
		latencySum += sh.latencySumMeas
		if sh.latencyMax > latencyMax {
			latencyMax = sh.latencyMax
		}
	}
	res := Result{Load: load}
	if deliveredMeas > 0 {
		res.AvgLatency = float64(latencySum) / float64(deliveredMeas)
		res.MaxLatency = latencyMax
	}
	if e.generatedMeas > 0 {
		res.DeliveredFrac = float64(deliveredMeas) / float64(e.generatedMeas)
	}
	res.Throughput = float64(deliveredMeas*int64(e.p.PacketFlits)) / float64(e.cfg.Endpoints()) / float64(e.p.Measure)
	for i := range e.queues {
		res.Backlog += e.pkts.length(&e.queues[i])
	}
	res.BacklogAtMeasEnd = e.backlogMeasEnd
	for _, sh := range e.shards {
		res.Lost += sh.lostPkts
	}
	if e.fs != nil {
		res.Lost += e.fs.lostRetries + e.fs.lostTimeout + e.fs.lostStranded
		res.Dropped = e.fs.droppedInFlight
		res.Retried = e.fs.retried
		res.TerminatedEarly = e.fs.done
	}
	// Saturation: measured packets left undelivered, or source queues
	// holding several packets per endpoint on average when measurement
	// ended — offered load exceeding accepted load. (A backlog of a
	// couple of packets is ordinary pre-saturation queueing.)
	res.Saturated = res.DeliveredFrac < 0.99 || res.BacklogAtMeasEnd > 3*e.cfg.Endpoints()
	if e.met != nil {
		e.finishMetrics(res)
	}
	return res
}

// finishMetrics merges the per-shard telemetry accumulators into the
// run's obs.SimRun in fixed shard order (all sums are integers, so the
// order is immaterial — it is fixed anyway, matching the discipline of
// every other aggregation in this package) and echoes the Result fields
// so the artifact stands alone.
func (e *Engine) finishMetrics(res Result) {
	m := e.met
	m.Load = res.Load
	m.Generated.Add(e.pktCtr)
	for _, sh := range e.shards {
		// Units still parked would have kept attempting to the last cycle.
		sm := sh.met
		sm.stall[stallChannel] -= e.settleOpenSpans(sh, e.now-1)
		m.Injected.Add(sm.injected)
		m.Lost.Add(sm.lost)
		m.Delivered.Add(sh.deliveredAll)
		m.StallInject.Add(sm.stall[stallInject])
		m.StallEject.Add(sm.stall[stallEject])
		m.StallChannel.Add(sm.stall[stallChannel])
		m.StallCredit.Add(sm.stall[stallCredit])
		for vc, n := range sm.creditVC {
			m.CreditStallVC[vc] += n
		}
		m.Latency.Merge(&sm.lat)
	}
	m.AvgLatency = res.AvgLatency
	m.Throughput = res.Throughput
	m.DeliveredFrac = res.DeliveredFrac
	m.Saturated = res.Saturated
	if e.laneCount > 1 {
		lanes := &obs.SimLanes{
			Lanes:     e.laneCount - 1,
			Chosen:    make([]int64, e.laneCount),
			Delivered: make([]int64, e.laneCount),
			Failovers: make([]int64, e.laneCount),
		}
		for _, sh := range e.shards {
			for l := 0; l < e.laneCount; l++ {
				lanes.Chosen[l] += sh.met.laneChosen[l]
				lanes.Delivered[l] += sh.met.laneDelivered[l]
				lanes.Failovers[l] += sh.met.laneFailover[l]
			}
		}
		if fs := e.fs; fs != nil && fs.health != nil {
			lanes.Demoted = fs.health.demoted
			lanes.Promoted = fs.health.promoted
		}
		m.Lanes = lanes
	}
	if fs := e.fs; fs != nil {
		m.Faults = &obs.SimFaults{
			PlanEvents:      int64(len(fs.plan.Events)),
			EventsApplied:   fs.eventsApplied,
			DroppedInFlight: obs.Counter(fs.droppedInFlight),
			Retries:         obs.Counter(fs.retried),
			LostRetryBudget: obs.Counter(fs.lostRetries),
			LostTimeout:     obs.Counter(fs.lostTimeout),
			LostStranded:    obs.Counter(fs.lostStranded),
			TerminatedEarly: fs.done,
			TerminatedAt:    fs.doneAt,
		}
	}
}
