package sim

import (
	"fmt"
	"testing"

	"polarstar/internal/obs"
)

// invariants checks, between two cycles, what DESIGN.md argues in prose:
// the slab accounting, queue lists and head records (slabCheck); the unit
// layout, once (layoutCheck); packet conservation; credit conservation per unit and per
// channel; VC indices that strictly increase along every packet's path;
// disjoint lane bands whose bounds every packet keeps; tree-lane packets
// that stay on their tree's channels and band; and, for a run observed
// with an interval row every cycle and checked every cycle, stall
// counters that count exactly the attempts an attempt-every-cycle engine
// would fail. The VC check compares each packet with the previous check:
// its VC never falls, and rises if it hopped without a lane failover in
// between.
type invariants struct {
	e     *Engine
	seen  []seenPkt   // packet id -> what it held at the previous check
	want  []int32     // unit -> flits queued at it or in flight to it
	sums  []int32     // channel -> occ summed over its units
	owner []slabPlace // slabCheck's owner table, reused across checks
	chans []int32     // a lane packet's decoded channels ahead

	// stalls enables the stall oracle: start and startLane hold each
	// unit's head packet (-1: empty) and its lane when arbitration began
	// (probe), stalled the Stalled the previous check read.
	stalls    bool
	start     []int32
	startLane []int8
	stalled   int64
}

// probe records, between the routing and the arbitration phase, which
// packet each unit will attempt to move: its queue's head or, for an
// empty queue, the first packet the mail drain will put there.
func (iv *invariants) probe() {
	e := iv.e
	if iv.start == nil {
		iv.start = make([]int32, len(e.queues))
		iv.startLane = make([]int8, len(e.queues))
	}
	for u := range e.queues {
		iv.start[u] = e.queues[u].head
	}
	slot := int(e.now % int64(e.ringLen))
	for i := slot; i < len(e.mail); i += e.ringLen {
		for _, a := range e.mail[i] {
			if iv.start[a.unit] < 0 {
				iv.start[a.unit] = a.id
			}
		}
	}
	for u, id := range iv.start {
		if id >= 0 {
			iv.startLane[u] = e.pkts.at(id).lane
		}
	}
}

// seenPkt is a packet id's state at a check. gen, srcEP and retries tell
// the packet apart from a later one reusing the id.
type seenPkt struct {
	live    bool
	gen     int64
	srcEP   int32
	retries uint8
	hop     int8
	lane    int8
	vc      int8 // -1: injection queue
}

func (iv *invariants) check() error {
	e := iv.e
	if err := e.slabCheckInto(&iv.owner); err != nil {
		return err
	}
	if iv.want == nil {
		// The layout is fixed by NewEngine: checking it once is enough.
		if err := e.layoutCheck(); err != nil {
			return err
		}
		iv.want = make([]int32, len(e.occ))
		iv.sums = make([]int32, len(e.occSum))
	}
	for l := 0; l < e.laneCount; l++ {
		lo := int32(0)
		if l > 0 {
			lo = e.laneEnd[l-1]
		}
		if e.laneBase[l] != lo || e.laneEnd[l] <= e.laneBase[l] {
			return fmt.Errorf("sim: lane %d band [%d,%d) does not start where lane %d's ends (%d), or is empty", l, e.laneBase[l], e.laneEnd[l], l-1, lo)
		}
	}
	if end := e.laneEnd[e.laneCount-1]; int(end) != e.vcs {
		return fmt.Errorf("sim: lane bands end at VC %d of %d", end, e.vcs)
	}
	for len(iv.seen) < e.pkts.cap() {
		iv.seen = append(iv.seen, seenPkt{})
	}
	S := int32(e.p.PacketFlits)
	want := iv.want
	clear(want)
	live := int64(0)
	visit := func(id, unit int32, inFlight bool) error {
		live++
		p := e.pkts.at(id)
		vc := int8(-1)
		if c := e.unitChan[unit]; c >= 0 {
			want[unit] += S
			vc = e.units[unit].minVC - 1
			if rem := int32(p.nHops - p.hop); int32(vc)+rem >= e.laneEnd[p.lane] {
				return fmt.Errorf("sim: packet %d at VC %d has %d links left, past lane %d's band end %d", id, vc, rem, p.lane, e.laneEnd[p.lane])
			}
			if inFlight && int32(vc) < e.laneBase[p.lane] {
				return fmt.Errorf("sim: packet %d entered VC %d, below lane %d's band [%d,%d)", id, vc, p.lane, e.laneBase[p.lane], e.laneEnd[p.lane])
			}
			// Below its band only after a lane failover, which the VC
			// order check covers; in its band, on its own tree.
			if p.lane > 0 && int32(vc) >= e.laneBase[p.lane] && e.chanLane[c] != p.lane {
				return fmt.Errorf("sim: lane %d packet %d sits on VC %d of channel %d, which is on lane %d", p.lane, id, vc, c, e.chanLane[c])
			}
		}
		if p.lane > 0 {
			// slabCheck has decoded every path already; no error here.
			iv.chans, _ = e.remainingChans(id, unit, iv.chans[:0])
			for _, c := range iv.chans {
				if e.chanLane[c] != p.lane {
					return fmt.Errorf("sim: lane %d packet %d has channel %d of lane %d ahead", p.lane, id, c, e.chanLane[c])
				}
			}
		}
		s := &iv.seen[id]
		if s.live && s.gen == p.gen && s.srcEP == p.srcEP && s.retries == p.retries &&
			(vc < s.vc || vc == s.vc && p.hop != s.hop && p.lane == s.lane) {
			return fmt.Errorf("sim: packet %d went from VC %d (hop %d) to VC %d (hop %d): VCs must strictly increase per hop", id, s.vc, s.hop, vc, p.hop)
		}
		*s = seenPkt{live: true, gen: p.gen, srcEP: p.srcEP, retries: p.retries, hop: p.hop, lane: p.lane, vc: vc}
		return nil
	}
	stalls := int64(0) // units that did not move the packet probe found
	for u := range e.queues {
		h := e.queues[u].head
		if iv.stalls && h >= 0 && h == iv.start[u] && e.pkts.at(h).lane == iv.startLane[u] {
			stalls++
		}
		for id := h; id >= 0; id = *e.pkts.link(id) {
			if err := visit(id, int32(u), false); err != nil {
				return err
			}
		}
	}
	for i := range e.mail {
		for _, a := range e.mail[i] {
			if err := visit(a.id, a.unit, true); err != nil {
				return err
			}
		}
	}
	// An id in the allocator holds no packet; its next one starts afresh.
	forget := func(ids []int32) {
		for _, id := range ids {
			iv.seen[id].live = false
		}
	}
	forget(e.pkts.free)
	for _, sh := range e.shards {
		forget(sh.freeIDs)
		forget(sh.freed)
	}

	sums := iv.sums
	clear(sums)
	for u, occ := range e.occ {
		if occ != want[u] {
			return fmt.Errorf("sim: unit %d (channel %d, VC %d) holds %d credits, its queue and link hold %d flits", u, e.unitChan[u], e.units[u].minVC-1, occ, want[u])
		}
		if occ != 0 {
			sums[e.unitChan[u]] += occ
		}
	}
	for c, sum := range e.occSum {
		if sums[c] != sum {
			return fmt.Errorf("sim: channel %d occSum %d, its units sum to %d", c, sum, sums[c])
		}
	}
	if iv.stalls {
		if err := iv.checkStalls(stalls); err != nil {
			return err
		}
	}

	// Every packet that entered routing — generated, or re-injected by a
	// retry — was delivered, lost, is still in the network, or was handed
	// to the retry scheduler (which retried it or charged it to a loss).
	in, out := e.pktCtr, live
	for _, sh := range e.shards {
		out += sh.deliveredAll + sh.lostPkts
	}
	if fs := e.fs; fs != nil {
		in += -1 - fs.retryCtr
		out += fs.retried + fs.lostRetries + fs.lostTimeout
	}
	if in != out {
		return fmt.Errorf("sim: %d packets entered routing, %d are accounted for", in, out)
	}
	return nil
}

// checkStalls compares the cycle's interval row with the stall oracle's
// count want, and with the four stall counters settled through the cycle.
// An attempt-every-cycle engine attempts every unit probe found a packet
// for, once, and the attempt fails unless it pops that packet (a grant,
// an ejection or a drop) or re-routes it in place onto a higher lane (a
// failover). A popped id is not reused within the cycle, so want counts
// the units whose head is still the packet probe found, on its lane.
func (iv *invariants) checkStalls(want int64) error {
	e := iv.e
	row := e.met.Series[len(e.met.Series)-1]
	if row.Cycle != e.now+1 {
		return fmt.Errorf("sim: last interval row is for cycle %d, want %d", row.Cycle, e.now+1)
	}
	if got := row.Stalled - iv.stalled; got != want {
		return fmt.Errorf("sim: %d stalls counted this cycle, %d units failed to move their packet", got, want)
	}
	iv.stalled = row.Stalled
	sum := int64(0)
	for _, sh := range e.shards {
		sum += sh.met.stalls() - e.settleOpenSpans(sh, e.now)
		credit := int64(0)
		for _, n := range sh.met.creditVC {
			credit += n
		}
		if credit != sh.met.stall[stallCredit] {
			return fmt.Errorf("sim: per-VC credit stalls sum to %d, stall_credit is %d", credit, sh.met.stall[stallCredit])
		}
	}
	if sum != row.Stalled {
		return fmt.Errorf("sim: stall counters sum to %d through cycle %d, its row has Stalled %d", sum, e.now, row.Stalled)
	}
	return nil
}

// TestInvariantsEveryCycle steps every small spec under every routing mode
// family, without a fault plan, with a scripted one (a link down, a router
// down, the link back) and with an MTBF one (random links down and back),
// and checks the invariants after every cycle. Shallow buffers keep units
// parked for credit. Runs without the scripted plan are observed with an
// interval row every cycle, which the stall oracle checks. Under the race
// detector only ps-iq-small runs, checked every 8th cycle (the oracle
// needs every cycle) and with 4 workers so the phases run concurrently:
// the matrix is the plain run's job. The UGAL-G and MTBF rows run on the
// first five specs only (both PolarStar variants among them), which keeps
// the plain run under 30 s on 2 CPUs with the whole 800-cycle window: the
// scripted link comes back at cycle 400, so the 64-cycle lane probe, the
// healed lane's re-promotion and a 400-cycle drain are all checked.
func TestInvariantsEveryCycle(t *testing.T) {
	names, every, workers := smallSpecNames, int64(1), 1
	if raceEnabled {
		names, every, workers = names[:1], 8, 4
	}
	for i, name := range names {
		spec := must(NewSpec(name))
		edge := offRouterEdge(t, spec, 3)
		scripted := &Plan{Events: []FaultEvent{
			{Cycle: 150, Kind: LinkDown, U: edge[0], V: edge[1]},
			{Cycle: 220, Kind: RouterDown, U: 3},
			{Cycle: 400, Kind: LinkUp, U: edge[0], V: edge[1]},
		}}
		mtbf := RandomPlan(spec.Graph, 50, 100, 800, 9)
		for _, mode := range []RoutingMode{MIN, UGALMode, UGALGMode, MPMINMode, MPUGALMode} {
			for _, plan := range []*Plan{nil, scripted, mtbf} {
				if i >= 5 && (mode == UGALGMode || plan == mtbf) {
					continue
				}
				plan := plan
				sub := name + "/" + mode.String()
				switch plan {
				case scripted:
					sub += "/plan"
				case mtbf:
					sub += "/mtbf"
				}
				t.Run(sub, func(t *testing.T) {
					t.Parallel()
					p := DefaultParams(5)
					p.Warmup, p.Measure, p.Drain = 100, 300, 400
					p.BufFlitsPerVC = 8
					p.Workers = workers
					p.Plan = plan
					if plan != scripted {
						p.Metrics = &obs.SimRun{}
						p.MetricsInterval = 1
					}
					routing := must(spec.Routing(mode, p))
					pattern := must(spec.Pattern("uniform", p.Seed))
					eng := NewEngine(p, spec.Graph, spec.Config(), routing, pattern)
					iv := &invariants{e: eng, stalls: p.Metrics != nil && every == 1}
					probe := iv.probe
					if !iv.stalls {
						probe = nil
					}
					got := runChecking(t, eng, 0.6, every, probe, iv.check)
					p.Metrics = nil
					plain := NewEngine(p, spec.Graph, spec.Config(), must(spec.Routing(mode, p)), must(spec.Pattern("uniform", p.Seed))).Run(0.6)
					if got != plain {
						t.Errorf("checked run %+v differs from Run's %+v", got, plain)
					}
				})
			}
		}
	}
}
