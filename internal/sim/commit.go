package sim

// commit applies the per-shard credit-release and freed-id journals in
// fixed shard order. Releases become visible only here — after every
// router has arbitrated — which is what decouples the routers within a
// cycle.
func (e *Engine) commit(t int64) {
	S := int32(e.p.PacketFlits)
	for _, sh := range e.shards {
		for _, unit := range sh.releases {
			c := e.unitChan[unit]
			e.occ[unit] -= S
			e.occSum[c] -= S
			// Unpark every unit waiting on this channel's credits: they
			// must re-attempt next cycle, exactly as an
			// attempt-every-cycle engine would.
			for u := e.waiterHead[c]; u >= 0; {
				nxt := e.waiterNext[u]
				e.waiterNext[u] = -1
				e.units[u].wake = t + 1
				e.routerWake[e.unitHome[u]] = 0
				u = nxt
			}
			e.waiterHead[c] = -1
		}
		sh.releases = sh.releases[:0]
		if len(sh.freed) > 0 {
			e.pkts.free = append(e.pkts.free, sh.freed...)
			sh.freed = sh.freed[:0]
		}
	}
	if t == int64(e.p.Warmup+e.p.Measure)-1 {
		// Source backlog only: packets still waiting in injection
		// queues (in-flight packets are not backlog).
		for _, u := range e.injUnit {
			e.backlogMeasEnd += e.pkts.length(&e.queues[u])
		}
	}
	if e.metInterval > 0 && (t+1)%e.metInterval == 0 {
		e.sampleInterval(t + 1)
	}
}
