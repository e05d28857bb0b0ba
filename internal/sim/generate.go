package sim

import "math"

// pendingInj is a packet generated this cycle, waiting for the routing
// phase of its source router's shard (generation itself stays serial: it
// drives the pattern RNG).
type pendingInj struct {
	ep  int32 // source endpoint
	dst int32 // destination endpoint
	ctr int64 // global injection counter: seeds the per-packet route RNG
	// gen is the cycle the packet was first generated (== the current
	// cycle for fresh packets; the original cycle for retries, so latency
	// and the age timeout span the whole delivery attempt).
	gen     int64
	retries uint8 // source retries already consumed (faults only)
}

// heapPush/heapPop/heapReplaceTop implement a binary min-heap over
// packed (cycle<<epBits | endpoint) events. Keys are distinct (the
// endpoint is in the low bits), so every sequence of operations pops in
// one order.
func (e *Engine) heapPush(v int64) {
	h := append(e.genHeap, v)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	e.genHeap = h
}

func (e *Engine) heapPop() int64 {
	h := e.genHeap
	top := h[0]
	last := len(h) - 1
	e.genHeap = h[:last]
	if last > 0 {
		e.heapReplaceTop(h[last])
	}
	return top
}

// heapReplaceTop replaces the minimum with v and sifts it down: one pass
// where a pop and a push take two.
func (e *Engine) heapReplaceTop(v int64) {
	h := e.genHeap
	h[0] = v
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// geoGap draws the geometric inter-generation gap (>= 1 cycle).
func (e *Engine) geoGap() int64 {
	if e.logQ >= 0 {
		return 1 // pktProb >= 1: generate every cycle
	}
	u := e.rng.Float64()
	for u == 0 {
		u = e.rng.Float64()
	}
	g := int64(math.Log(u)/e.logQ) + 1
	if g < 1 {
		g = 1
	}
	return g
}

// initGeneration seeds the calendar so that each endpoint generates with
// probability pktProb in every cycle (first event at geoGap-1).
func (e *Engine) initGeneration(pktProb float64) {
	if pktProb <= 0 {
		return
	}
	if pktProb < 1 {
		e.logQ = math.Log(1 - pktProb)
	}
	for ep := 0; ep < e.cfg.Endpoints(); ep++ {
		e.heapPush((e.geoGap()-1)<<epBits | int64(ep))
	}
}

// generate pops every endpoint scheduled to emit a packet this cycle and
// records the pending injection on the source router's shard. Only the
// destination draw consumes the engine RNG; routing happens in the
// parallel phase under a per-packet seed.
func (e *Engine) generate(t int64) {
	horizon := int64(e.p.Warmup + e.p.Measure)
	for len(e.genHeap) > 0 && e.genHeap[0]>>epBits <= t {
		ep := int(e.genHeap[0] & (maxEndpoint - 1))
		if next := t + e.geoGap(); next < horizon {
			e.heapReplaceTop(next<<epBits | int64(ep))
		} else {
			e.heapPop()
		}
		dst := e.pattern.Dest(ep, e.rng)
		if dst < 0 {
			continue
		}
		if e.measuring {
			e.generatedMeas++
		}
		sh := e.shards[e.routerShard[e.cfg.RouterOf(ep)]]
		sh.pending = append(sh.pending, pendingInj{ep: int32(ep), dst: int32(dst), ctr: e.pktCtr, gen: t})
		e.pktCtr++
	}
}
