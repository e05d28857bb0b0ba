package sim

import (
	"fmt"
	"testing"
)

// invariants checks, between two cycles, what DESIGN.md argues in prose:
// the slab accounting, queue lists and head records (slabCheck); packet
// conservation; credit conservation; VC indices that strictly increase
// along every packet's path; and disjoint lane bands whose bounds every
// packet keeps. The VC check compares each packet with the previous
// check: its VC never falls, and rises if it hopped without a lane
// failover in between.
type invariants struct {
	e    *Engine
	seen []seenPkt // packet id -> what it held at the previous check
	want []int32   // credit -> flits queued at it or in flight to it
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
	if err := e.slabCheck(); err != nil {
		return err
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
	vcs := int32(e.vcs)
	if iv.want == nil {
		iv.want = make([]int32, len(e.occ))
	}
	want := iv.want
	clear(want)
	live := int64(0)
	visit := func(id, unit int32, inFlight bool) error {
		live++
		p := e.pkts.at(id)
		vc := int8(-1)
		if credit := e.unitCredit[unit]; credit >= 0 {
			want[credit] += S
			vc = int8(credit % vcs)
			if rem := int32(p.nHops - p.hop); int32(vc)+rem >= e.laneEnd[p.lane] {
				return fmt.Errorf("sim: packet %d at VC %d has %d links left, past lane %d's band end %d", id, vc, rem, p.lane, e.laneEnd[p.lane])
			}
			if inFlight && int32(vc) < e.laneBase[p.lane] {
				return fmt.Errorf("sim: packet %d entered VC %d, below lane %d's band [%d,%d)", id, vc, p.lane, e.laneBase[p.lane], e.laneEnd[p.lane])
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
	for u := range e.queues {
		for id := e.queues[u].head; id >= 0; id = *e.pkts.link(id) {
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

	for credit, occ := range e.occ {
		if occ != want[credit] {
			return fmt.Errorf("sim: channel %d VC %d holds %d credits, its queue and link hold %d flits", int32(credit)/vcs, int32(credit)%vcs, occ, want[credit])
		}
	}
	for c, sum := range e.occSum {
		var got int32
		for _, o := range e.occ[int32(c)*vcs : int32(c+1)*vcs] {
			got += o
		}
		if got != sum {
			return fmt.Errorf("sim: channel %d occSum %d, its VCs sum to %d", c, sum, got)
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

// TestInvariantsEveryCycle steps every small spec under every routing mode
// family, with and without a scripted fault plan (a link down, a router
// down, the link back), and checks the invariants after every cycle.
// Shallow buffers keep units parked for credit. Under the race detector
// only ps-iq-small runs, checked every 8th cycle and with 4 workers so the
// phases run concurrently: the matrix is the plain run's job.
func TestInvariantsEveryCycle(t *testing.T) {
	names, every, workers := smallSpecNames, int64(1), 1
	if raceEnabled {
		names, every, workers = names[:1], 8, 4
	}
	for _, name := range names {
		spec := must(NewSpec(name))
		edge := offRouterEdge(t, spec, 3)
		scripted := &Plan{Events: []FaultEvent{
			{Cycle: 150, Kind: LinkDown, U: edge[0], V: edge[1]},
			{Cycle: 220, Kind: RouterDown, U: 3},
			{Cycle: 400, Kind: LinkUp, U: edge[0], V: edge[1]},
		}}
		for _, mode := range []RoutingMode{MIN, UGALMode, MPMINMode, MPUGALMode} {
			for _, plan := range []*Plan{nil, scripted} {
				plan := plan
				sub := name + "/" + mode.String()
				if plan != nil {
					sub += "/plan"
				}
				t.Run(sub, func(t *testing.T) {
					t.Parallel()
					p := DefaultParams(5)
					p.Warmup, p.Measure, p.Drain = 100, 300, 400
					p.BufFlitsPerVC = 8
					p.Workers = workers
					p.Plan = plan
					routing := must(spec.Routing(mode, p))
					pattern := must(spec.Pattern("uniform", p.Seed))
					eng := NewEngine(p, spec.Graph, spec.Config(), routing, pattern)
					iv := &invariants{e: eng}
					runChecking(t, eng, 0.6, every, iv.check)
				})
			}
		}
	}
}
