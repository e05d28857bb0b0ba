package sim

// The arbitration phase: the scan over a shard's active units, the forward
// attempt, the per-unit head record both decide from, and the stall-span
// telemetry of the attempts wake scheduling skips.

// unitState is what arbitration knows about one queue unit without
// following a pointer: when it may next attempt, and where its head packet
// wants to go. 16 bytes, so the scan and every failing branch of
// tryForward (two attempts in three at saturation) read this record and
// resource-indexed arrays only; queue links and the slab are touched when
// a packet moves.
//
// The head fields cache the slab record of queues[unit].head, refreshed
// where a head changes: a push onto an empty queue (enqueue), a pop
// (popHead) and laneFailover's in-place re-route. slabCheck
// (slab_test.go) verifies them against the slab.
//
// Ownership: a unit's record is written only by the shard of its home
// router — mail is drained by the destination shard, injection queues are
// filled by the source router's shard — and, for wake alone, by the serial
// sections (commit's credit wake-ups, unparkAll).
type unitState struct {
	wake  int64 // earliest cycle an attempt can succeed
	next  int32 // head's next channel; its destination endpoint when rem == headEject; headEmpty: no head
	rem   int8  // links left on the head's path after next
	lane  int8  // head's routing lane
	minVC int8  // lowest VC the next hop may use (vc+1; 0 exactly for injection queues, whose endpoint is injEP): fixed at construction
}

const (
	headEmpty = -1 // unitState.next of an empty queue
	headEject = -1 // unitState.rem of a head at its destination router
)

// setHead points the record at head packet p, queued at a router whose
// first channel is first.
func (u *unitState) setHead(p *pkt, first int32) {
	if p.hop == p.nHops {
		u.next, u.rem = p.dstEP, headEject
	} else {
		u.next, u.rem = first+int32(p.slots[p.hop]), p.nHops-p.hop-1
	}
	u.lane = p.lane
}

// firstChannel returns the first channel of unit's home router: the base
// its head packet's next slot is added to.
func (e *Engine) firstChannel(unit int32) int32 {
	return int32(e.g.FirstChannel(int(e.unitHome[unit])))
}

// enqueue appends packet id to unit's queue and lists the unit as active.
// Owning shard only.
func (e *Engine) enqueue(sh *shardState, unit, id int32) {
	if u := &e.units[unit]; u.next == headEmpty {
		u.setHead(e.pkts.at(id), e.firstChannel(unit))
	}
	e.pkts.push(&e.queues[unit], id)
	e.markActive(unit, sh)
}

// popHead removes the head packet of unit's queue q and points its record
// u at the successor, if any.
func (e *Engine) popHead(unit int32, q *pktQueue, u *unitState) {
	if e.pkts.pop(q); q.head < 0 {
		u.next = headEmpty
	} else {
		u.setHead(e.pkts.at(q.head), e.firstChannel(unit))
	}
}

// dropHead removes unit's head packet from the network — its next link or
// its destination router is down — releasing the buffer credit it holds
// (at commit, preserving the reclaim invariant) and journaling a source
// retry, which re-routes around the failure.
func (e *Engine) dropHead(sh *shardState, unit int32, u *unitState) {
	q := &e.queues[unit]
	id := q.head
	e.fs.retryFrom(sh, id)
	e.release(sh, unit)
	sh.freed = append(sh.freed, id)
	e.popHead(unit, q, u)
}

// arbitrateShard is the arbitration phase of one shard: drain the
// packets other shards forwarded to this shard's queues (fixed source
// order keeps queue contents deterministic), then arbitrate the active
// routers of the worklist.
func (e *Engine) arbitrateShard(sh *shardState, sid int) {
	t := e.now
	slot := int(t % int64(e.ringLen))
	for src := 0; src < numShards; src++ {
		box := &e.mail[(src*numShards+sid)*e.ringLen+slot]
		for _, a := range *box {
			e.enqueue(sh, a.unit, a.id)
		}
		sh.mailIn += int64(len(*box))
		*box = (*box)[:0]
	}

	S := int64(e.p.PacketFlits)
	kept := sh.routers[:0]
	for _, r := range sh.routers {
		if e.routerWake[r] > t {
			// Every unit of this router is waiting on a known future
			// cycle; nothing here can grant. Its active list is untouched
			// (pops only happen through attempts), so skipping leaves the
			// rotation exactly where an attempt-every-cycle engine's
			// would be.
			kept = append(kept, r)
			continue
		}
		units := e.active[r]
		minWake := int64(1) << 62
		removed := false
		// Round-robin: rotate by cycle to avoid static priority. The
		// rotation is computed in int64 so 32-bit ints cannot truncate
		// the cycle count.
		j := int(t % int64(len(units)))
		for i := 0; i < len(units); i++ {
			unit := units[j]
			if j++; j == len(units) {
				j = 0
			}
			u := &e.units[unit]
			if w := u.wake; w > t {
				if w < minWake {
					minWake = w
				}
				continue
			}
			if u.next == headEmpty {
				e.inActive.clear(unit)
				removed = true
				continue
			}
			e.tryForward(sh, sid, unit, u, S)
			if u.next == headEmpty {
				e.inActive.clear(unit)
				removed = true
			} else if w := u.wake; w < minWake {
				minWake = w
			}
		}
		if removed {
			// Rebuild the active list without emptied units (preserving
			// original order for fairness stability). Skipped when nothing
			// emptied — the common saturated-steady-state case.
			keptUnits := units[:0]
			for _, unit := range units {
				if e.inActive.get(unit) {
					if e.spans != nil {
						e.spans[unit].pos = int32(len(keptUnits))
					}
					keptUnits = append(keptUnits, unit)
				}
			}
			e.active[r] = keptUnits
			units = keptUnits
		}
		if len(units) == 0 {
			e.inWorklist[r] = false
		} else {
			kept = append(kept, r)
			e.routerWake[r] = minWake
		}
	}
	sh.routers = kept
}

// tryForward attempts to advance the head packet of a unit queue: at
// most one packet per input unit per cycle; one grant per output
// resource per cycle is enforced by the busy timestamps. All state it
// writes is owned by the arbitrating router (channel busy/occ of its
// outgoing channels, its endpoints' injection/ejection serialization, the
// unit's record) or by the packet itself (the hop cursor of its own queue
// head); effects on other routers — forwarded packets, freed credits,
// freed ids — go into the shard journals. Everything up to a grant or a
// drop is decided from u alone.
func (e *Engine) tryForward(sh *shardState, sid int, unit int32, u *unitState, S int64) {
	sm := sh.met
	if sm != nil {
		// An attempt ends the unit's parked span, if it has one.
		if sp := &e.spans[unit]; sp.reason != stallNone {
			sm.stall[stallChannel] -= sm.settleSpan(sp, e.now-1)
			sp.reason = stallNone
		}
	}
	// Injection serialization: a packet leaves its endpoint at most
	// every S cycles.
	if u.minVC == 0 {
		if ep := e.injEP(unit); e.injBusy[ep] > e.now {
			u.wake = e.injBusy[ep]
			if sm != nil {
				e.openSpan(unit, stallInject, 0)
			}
			return
		}
	}
	if u.rem == headEject {
		// Ejection to the destination endpoint.
		ep := u.next
		if e.fs != nil && e.fs.deadRouter[e.cfg.RouterOf(int(ep))] {
			// The destination router died under the packet.
			e.dropHead(sh, unit, u)
			return
		}
		if e.ejBusy[ep] > e.now {
			u.wake = e.ejBusy[ep]
			if sm != nil {
				e.openSpan(unit, stallEject, 0)
			}
			return
		}
		e.ejBusy[ep] = e.now + S
		q := &e.queues[unit]
		id := q.head
		e.deliver(sh, e.pkts.at(id), e.now+S)
		if sm != nil && sm.laneDelivered != nil {
			sm.laneDelivered[u.lane]++
		}
		e.release(sh, unit)
		sh.freed = append(sh.freed, id)
		u.wake = e.now + 1
		e.popHead(unit, q, u)
		return
	}
	c := u.next
	if e.fs != nil && e.fs.deadChan[c] {
		// The next link of the packet's path is down. A multipath packet
		// first tries a lane failover: re-route in place from this router
		// onto a live tree lane with a strictly higher index (its VC band
		// sits strictly above every VC the packet can currently occupy,
		// so the global VC-monotonicity invariant survives the reroute).
		if e.laneCount > 1 && e.fs.laneFailover(sh, unit, u) {
			return // forwards on the new lane from the next cycle
		}
		// No live higher lane offers a path.
		e.dropHead(sh, unit, u)
		return
	}
	if e.busy[c] > e.now {
		u.wake = e.busy[c]
		if sm != nil {
			e.openSpan(unit, stallChannel, 0)
		}
		return
	}
	// VC allocation: each hop takes a VC strictly above the packet's
	// current one (injection starts below VC 0), so the channel/VC
	// dependency graph stays acyclic, and among the eligible VCs of the
	// packet's lane band the one with the most free credits, spreading
	// load against head-of-line blocking.
	minVC := int(u.minVC)
	if base := int(e.laneBase[u.lane]); minVC < base {
		minVC = base
	}
	// Leave VC headroom for the links after this one: choosing too
	// high a VC now would strand the packet later.
	maxVC := int(e.laneEnd[u.lane]) - 1 - int(u.rem)
	if minVC > maxVC {
		panic("sim: path longer than VC count")
	}
	off := int(e.chanUnit[c]) // the unit of (c, vc) is off+vc; off may be < 0
	if u.lane != 0 {
		if e.chanLane[c] != u.lane {
			panic("sim: lane path leaves its tree")
		}
		off += int(e.laneEnd[0] - e.laneBase[u.lane])
	}
	bestVC, bestFree := -1, 0
	for vc := minVC; vc <= maxVC; vc++ {
		if free := e.p.BufFlitsPerVC - int(e.occ[off+vc]); free >= int(S) && free > bestFree {
			bestVC, bestFree = vc, free
		}
	}
	if bestVC < 0 {
		// No credits downstream on any eligible VC. Credits only come
		// back through a commit-applied release on channel c, so park
		// the unit on c's waiter list; commit re-arms it (wake = t+1)
		// when any release for c lands. Waking on any VC of c is
		// conservative — the unit may stall again — but never late.
		u.wake = int64(1) << 62
		e.waiterNext[unit] = e.waiterHead[c]
		e.waiterHead[c] = unit
		if sm != nil {
			e.openSpan(unit, stallCredit, minVC)
		}
		return
	}
	// Grant.
	e.occ[off+bestVC] += int32(S)
	e.occSum[c] += int32(S)
	if e.occHWM != nil {
		e.occHWM.Observe(int(c), e.occSum[c])
	}
	e.busy[c] = e.now + S
	if sm != nil && e.waiterHead[c] >= 0 {
		e.chargeBusy(sm, c, unit, S)
	}
	if u.minVC == 0 {
		e.injBusy[e.injEP(unit)] = e.now + S
	}
	q := &e.queues[unit]
	id := q.head
	e.pkts.at(id).hop++
	dstShard := int(e.routerShard[e.g.ChannelTo(int(c))])
	arrive := int((e.now + S + int64(e.p.LinkLatency)) % int64(e.ringLen))
	box := &e.mail[(sid*numShards+dstShard)*e.ringLen+arrive]
	*box = append(*box, inflight{id: id, unit: int32(off + bestVC)})
	sh.mailOut++
	e.release(sh, unit)
	u.wake = e.now + 1
	e.popHead(unit, q, u)
}

// openSpan starts unit's parked span at the attempt that just failed for
// reason. The failed attempt itself is the span's first cycle, so every
// stall is counted in one place: settleSpan.
func (e *Engine) openSpan(unit int32, reason uint8, minVC int) {
	sp := &e.spans[unit]
	sp.from = e.now - 1
	sp.reason = reason
	sp.vc = int8(minVC)
}

// settleSpan counts the attempts of an open span on cycles (sp.from, last]
// — the failed one that opened it and the ones parking skipped — exactly
// as an attempt-every-cycle engine would have recorded them, and moves
// sp.from to last. The span is over when its unit next attempts
// (tryForward, last = now-1) or the run ends; interval rows settle it in
// passing. Why the reason holds for the whole span:
//
//   - inject, eject, channel: the unit wakes at the busy-until timestamp
//     it stalled on. Such a timestamp only moves through a grant, no grant
//     on that resource is possible before it expires, and the head packet
//     only leaves through an attempt; every skipped attempt would have hit
//     the same test.
//   - credit: credits on the awaited channel come back only through a
//     commit-applied release, which ends the span (the waiter list), so a
//     skipped attempt fails the same VC scan — unless it finds the channel
//     busy first, which tryForward tests earlier and counts as a channel
//     stall. The channel turns busy only through grants by units of the
//     same router in the same arbitration loop, and chargeBusy counts
//     those cycles on the spot.
//
// A fault event can change any of this, and unparkAll ends every span on
// the cycle one applies.
//
// chargeBusy counts a whole busy window at the grant, so sp.from can be
// past last: the span is then left alone and the cycles counted ahead are
// returned. They are channel stalls; a caller ending the span takes them
// back, a caller sampling the counters leaves them out.
func (m *shardMetrics) settleSpan(sp *parkSpan, last int64) (ahead int64) {
	n := last - sp.from
	if n < 0 {
		return -n
	}
	sp.from = last
	m.stall[sp.reason] += n
	if sp.reason == stallCredit {
		m.creditVC[sp.vc] += n
	}
	return 0
}

// settleOpenSpans settles every parked unit of the shard through cycle
// last, leaving the spans open, and returns the stalls counted ahead of
// last. Serial sections only.
func (e *Engine) settleOpenSpans(sh *shardState, last int64) (ahead int64) {
	for _, r := range sh.routers {
		for _, unit := range e.active[r] {
			if sp := &e.spans[unit]; sp.reason != stallNone {
				ahead += sh.met.settleSpan(sp, last)
			}
		}
	}
	return ahead
}

// chargeBusy accounts for the units parked for credit on channel c when
// granter takes it for S cycles. Up to here their skipped attempts were
// credit stalls — this cycle's too for a waiter whose turn in the
// round-robin came before granter's — and from here to the end of the
// busy window an attempt-every-cycle engine would count channel stalls.
func (e *Engine) chargeBusy(sm *shardMetrics, c, granter int32, S int64) {
	n := int32(len(e.active[e.unitHome[granter]]))
	first := int32(e.now % int64(n)) // the unit the rotation started at
	turn := func(unit int32) int32 { return (e.spans[unit].pos - first + n) % n }
	g := turn(granter)
	busyEnd := e.now + S - 1
	for w := e.waiterHead[c]; w >= 0; w = e.waiterNext[w] {
		sp := &e.spans[w]
		free := e.now - 1 // last cycle w found the channel free
		if turn(w) < g {
			free = e.now
		}
		sm.settleSpan(sp, free) // nothing ahead: the previous window has expired
		sm.stall[stallChannel] += busyEnd - free
		sp.from = busyEnd
	}
}

// release journals the upstream buffer credit freed when a packet leaves
// a channel queue (injection queues are unbounded and hold no credits).
// The credit becomes visible at commit, after every router has
// arbitrated this cycle.
func (e *Engine) release(sh *shardState, unit int32) {
	if e.unitChan[unit] >= 0 {
		sh.releases = append(sh.releases, unit)
	}
}

// injEP returns the endpoint of an injection-queue unit.
func (e *Engine) injEP(unit int32) int32 { return ^e.unitChan[unit] }

func (e *Engine) deliver(sh *shardState, p *pkt, at int64) {
	sh.deliveredAll++
	if e.measured(p.gen) {
		sh.deliveredMeas++
		lat := at - p.gen
		sh.latencySumMeas += lat
		if lat > sh.latencyMax {
			sh.latencyMax = lat
		}
		if sh.met != nil {
			sh.met.lat.Observe(lat)
		}
	}
}
