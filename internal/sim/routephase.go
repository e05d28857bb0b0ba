package sim

// refillIDs tops up every shard's packet-id allocation cache to cover
// the injections it will route this cycle, growing the slab when the
// global free stack runs dry. Serial, in fixed shard order — the only
// place ids are handed out — so the allocator's behavior is a pure
// function of the serial schedule.
func (e *Engine) refillIDs() {
	for _, sh := range e.shards {
		need := len(sh.pending) - len(sh.freeIDs)
		if need <= 0 {
			continue
		}
		if len(e.pkts.free) < need {
			e.pkts.grow(need - len(e.pkts.free))
		}
		n := len(e.pkts.free)
		sh.freeIDs = append(sh.freeIDs, e.pkts.free[n-need:]...)
		e.pkts.free = e.pkts.free[:n-need]
	}
}

// routeShard is the routing phase of one shard: route every pending
// packet, resolve the vertex path to adjacency slots once into a freshly
// allocated slab id, and enqueue the id on the source endpoint's
// injection queue. Occupancy reads (UGAL) see the stable previous-cycle
// state; the per-packet seed makes the result independent of how packets
// are spread over shards and workers.
func (e *Engine) routeShard(sh *shardState) {
	for _, pi := range sh.pending {
		srcR, dstR := e.cfg.RouterOf(int(pi.ep)), e.cfg.RouterOf(int(pi.dst))
		var path []int
		var lane int8
		if srcR != dstR {
			sh.rngSrc.seed(e.p.Seed, pi.ctr)
			if sh.laned != nil {
				sh.pathBuf, lane = sh.laned.PathLane(sh.pathBuf[:0], srcR, dstR, sh.occFn, sh.rng)
			} else {
				sh.pathBuf = sh.routing.Path(sh.pathBuf[:0], srcR, dstR, sh.occFn, sh.rng)
			}
			path = sh.pathBuf
			if e.fs != nil {
				// Fault mode: validate the path against current liveness,
				// fall back to the repaired table or a spanning-tree escape
				// path, and source-retry what cannot be routed right now.
				detour, ok := e.fs.detour(sh, srcR, dstR, path)
				if !ok {
					sh.retryQ = append(sh.retryQ, retryReq{ep: pi.ep, dst: pi.dst, gen: pi.gen, retries: pi.retries})
					continue
				}
				path = detour
			}
			if len(path) == 0 || len(path) > MaxPathNodes {
				// Unroutable, or beyond the simulator's path/VC budget
				// (deeply degraded topologies stretch paths arbitrarily;
				// a path longer than the VC ladder is undeliverable
				// deadlock-free): the packet is lost. It still counted
				// as generated, so DeliveredFrac reflects the loss.
				sh.lostPkts++
				if sh.met != nil {
					sh.met.lost++
				}
				continue
			}
		}
		// The path is routable: claim a slab id from the shard's cache
		// (refillIDs guaranteed one per pending injection) and fill it.
		id := sh.freeIDs[len(sh.freeIDs)-1]
		sh.freeIDs = sh.freeIDs[:len(sh.freeIDs)-1]
		p := e.pkts.at(id)
		e.setPath(p, path)
		p.gen = pi.gen
		p.dstEP = pi.dst
		p.srcEP = pi.ep
		p.retries = pi.retries
		p.lane = lane
		e.enqueue(sh, e.injUnit[pi.ep], id)
		if sh.met != nil {
			sh.met.injected++
			if sh.met.laneChosen != nil {
				sh.met.laneChosen[lane]++
			}
		}
	}
	sh.pending = sh.pending[:0]
}
