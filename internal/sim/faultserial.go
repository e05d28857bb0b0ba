package sim

// applyFaults applies every plan event due at cycle t, then drops the
// in-flight packets caught on newly dead channels in one batch scan, and
// re-arms every parked unit: what a parked unit waits on changes outside
// arbitration and commit only here (liveness, and dropInFlight's credit
// reclaim, which wakes no waiter). Runs serially at the start of the cycle.
func (e *Engine) applyFaults(t int64) {
	fs := e.fs
	killed := false
	first := fs.next
	for fs.next < len(fs.plan.Events) && fs.plan.Events[fs.next].Cycle <= t {
		ev := fs.plan.Events[fs.next]
		fs.next++
		fs.eventsApplied++
		switch ev.Kind {
		case LinkDown:
			killed = fs.applyLinkDown(ev.U, ev.V) || killed
		case LinkUp:
			fs.applyLinkUp(ev.U, ev.V)
		case RouterDown:
			killed = fs.applyRouterDown(ev.U) || killed
		case RouterUp:
			fs.applyRouterUp(ev.U)
		}
	}
	if fs.next > first && e.p.RepairDelay > 0 {
		fs.repairReadyAt = t + e.p.RepairDelay
	}
	if fs.health != nil {
		if fs.next > first {
			fs.health.rescan(t, fs.deadChan, e.chanLane)
		}
		fs.health.promote(t)
	}
	if killed {
		fs.dropInFlight(t)
	}
	if fs.next > first {
		e.unparkAll()
	}
}

// unparkAll makes every queued unit attempt this cycle, as an
// attempt-every-cycle engine would: wakes zeroed, credit-waiter lists
// emptied. Parked units are exactly the listed units of the worklist
// routers, and they wait on those routers' outgoing channels.
func (e *Engine) unparkAll() {
	for _, sh := range e.shards {
		for _, r := range sh.routers {
			e.routerWake[r] = 0
			for _, unit := range e.active[r] {
				e.units[unit].wake = 0
				e.waiterNext[unit] = -1
			}
			first := e.g.FirstChannel(int(r))
			for c := first; c < first+e.g.Degree(int(r)); c++ {
				e.waiterHead[c] = -1
			}
		}
	}
}

// collectRetries drains the per-shard retry journals in fixed shard
// order into the serial retry heap. Runs after commit.
func (e *Engine) collectRetries(t int64) {
	fs := e.fs
	for _, sh := range e.shards {
		for _, rq := range sh.retryQ {
			fs.scheduleRetry(t, rq.ep, rq.dst, rq.gen, rq.retries)
		}
		sh.retryQ = sh.retryQ[:0]
	}
}

// scheduleRetry books one re-injection with bounded exponential backoff,
// or charges the packet to a loss bucket when its retry budget or age
// limit is exhausted.
func (fs *faultState) scheduleRetry(t int64, ep, dst int32, gen int64, retries uint8) {
	if int(retries) >= fs.policy.MaxRetries {
		fs.lostRetries++
		return
	}
	backoff := fs.policy.BackoffBase << retries
	if backoff <= 0 || backoff > fs.policy.BackoffCap {
		backoff = fs.policy.BackoffCap
	}
	when := t + 1 + backoff
	if fs.policy.MaxAge > 0 && when-gen > fs.policy.MaxAge {
		fs.lostTimeout++
		return
	}
	fs.seq++
	fs.heapPush(retryEvent{when: when, seq: fs.seq, ep: ep, dst: dst, gen: gen, retries: retries + 1})
	fs.retried++
}

// injectRetries re-injects every retry due at cycle t as a pending
// injection on its source router's shard, with a fresh route-RNG seed
// from the descending retry counter (so retried packets re-draw their
// path — typically landing on the repaired table or an escape path).
func (e *Engine) injectRetries(t int64) {
	fs := e.fs
	for len(fs.retryHeap) > 0 && fs.retryHeap[0].when <= t {
		ev := fs.heapPop()
		sh := e.shards[e.routerShard[e.cfg.RouterOf(int(ev.ep))]]
		sh.pending = append(sh.pending, pendingInj{
			ep: ev.ep, dst: ev.dst, ctr: fs.retryCtr, gen: ev.gen, retries: ev.retries,
		})
		fs.retryCtr--
	}
}

// retryLess orders the retry heap by (when, seq): re-injections happen in
// schedule order within a cycle, independent of worker count.
func retryLess(a, b retryEvent) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (fs *faultState) heapPush(ev retryEvent) {
	h := append(fs.retryHeap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !retryLess(h[i], h[parent]) {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	fs.retryHeap = h
}

func (fs *faultState) heapPop() retryEvent {
	h := fs.retryHeap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && retryLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && retryLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	fs.retryHeap = h
	return top
}

// watchdog ends the run early once nothing can make progress anymore: no
// packet delivered, lost or injected for well over a full
// backoff-plus-pipeline interval, with no future generation, retries or
// plan events pending. Whatever is still queued at that point is wedged
// (a disconnected network with exhausted retries) and counts as
// stranded — the run returns partial metrics instead of spinning through
// the remaining drain cycles.
func (e *Engine) watchdog(t int64) {
	fs := e.fs
	progress := e.pktCtr + fs.retried + fs.lostRetries + fs.lostTimeout + fs.droppedInFlight
	for _, sh := range e.shards {
		progress += sh.deliveredAll + sh.lostPkts
	}
	if progress != fs.lastProgress || len(e.genHeap) > 0 || len(fs.retryHeap) > 0 || fs.next < len(fs.plan.Events) {
		fs.lastProgress = progress
		fs.stuck = 0
		return
	}
	fs.stuck++
	if fs.stuck > fs.watchdogLimit() {
		fs.finishStranded(t)
	}
}

// watchdogLimit is the stuck-cycle threshold: well over a full
// backoff-plus-pipeline interval. The event-horizon advance emulates the
// watchdog against the same limit when it skips idle cycles.
func (fs *faultState) watchdogLimit() int64 {
	return int64(fs.e.ringLen) + fs.policy.BackoffCap + 64
}

// finishStranded counts every packet still sitting in a queue or mail
// ring as lost-stranded and marks the run done; Run exits its cycle loop
// at the end of this cycle.
func (fs *faultState) finishStranded(t int64) {
	e := fs.e
	for i := range e.queues {
		fs.lostStranded += int64(e.pkts.length(&e.queues[i]))
	}
	for i := range e.mail {
		fs.lostStranded += int64(len(e.mail[i]))
	}
	fs.done = true
	fs.doneAt = t
}
