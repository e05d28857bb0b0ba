package sim

// Event-horizon cycle skipping: when a cycle ends with every queue empty
// and nothing in flight, no packet exists anywhere in the network — so
// every subsequent cycle is a no-op until the next *scheduled* event
// (generation calendar, retry heap, fault plan). Run jumps `now`
// straight to the cycle before that event instead of stepping the idle
// stretch one cycle at a time. Near the latency floor — where most of
// the sweep's cycles live, warmup gaps and the entire drain tail — this
// collapses millions of empty arbitrations into one min() over three
// heap tops.
//
// Correctness (DESIGN.md §10 gives the full argument): quiescence is
// detected from committed end-of-cycle state only (worklists + the
// mail-ring in-flight count), every timestamp the skipped cycles could
// have touched (busy/ejBusy/injBusy) is only ever *compared against*
// `now` by packets — and no packet exists, so no unit is parked and no
// stall span is open either — and the skip re-creates the two side
// effects an idle stepped cycle does have: interval-series rows
// (counters are constant while idle, so the synthesized rows are exact)
// and the fault watchdog's stuck counter, including its early-
// termination firing cycle.

// horizonAdvance returns how many cycles after t Run may skip (0: step
// t+1 normally). Called after stepCycle(t) committed; may fire the
// emulated watchdog (setting fs.done) when the idle stretch has no
// future event at all.
func (e *Engine) horizonAdvance(t, total int64) int64 {
	if t+1 >= total || !e.quiescent() {
		return 0
	}
	// Next cycle with scheduled work. All three sources are strictly
	// ahead of t: stepCycle(t) consumed everything due at or before t.
	next := total
	noEvents := true
	if len(e.genHeap) > 0 {
		noEvents = false
		if c := e.genHeap[0] >> epBits; c < next {
			next = c
		}
	}
	fs := e.fs
	if fs != nil {
		if len(fs.retryHeap) > 0 {
			noEvents = false
			if c := fs.retryHeap[0].when; c < next {
				next = c
			}
		}
		if fs.next < len(fs.plan.Events) {
			noEvents = false
			if c := fs.plan.Events[fs.next].Cycle; c < next {
				next = c
			}
		}
	}
	if fs != nil {
		if noEvents {
			// Nothing is ever going to happen again: the only remaining
			// actor is the watchdog, which counts every idle cycle and ends
			// the run once stuck exceeds its limit. Reproduce its firing
			// cycle exactly (the stepped engine increments stuck once per
			// cycle after t, starting from the current value).
			fire := t + fs.watchdogLimit() - fs.stuck + 1
			if fire < next {
				e.emitSkippedSamples(t, fire)
				e.skipped += fire - 1 - t
				fs.stuck = fs.watchdogLimit() + 1
				fs.finishStranded(fire)
				return fire - t
			}
			fs.stuck += next - 1 - t
		} else {
			// Pending events reset the watchdog in every skipped cycle
			// (progress is unchanged, but the heaps are non-empty).
			fs.stuck = 0
		}
	}
	e.emitSkippedSamples(t, next-1)
	e.skipped += next - 1 - t
	return next - 1 - t
}

// quiescent reports whether the just-committed cycle left the network
// empty: no active router on any shard's worklist (every queued packet
// keeps its unit active, its router listed) and no packet in the mail
// rings (posted minus drained minus fault-dropped, summed serially over
// the shard-owned counters).
func (e *Engine) quiescent() bool {
	var out, in int64
	for _, sh := range e.shards {
		if len(sh.routers) > 0 {
			return false
		}
		out += sh.mailOut
		in += sh.mailIn
	}
	return out-in-e.mailDropped == 0
}

// emitSkippedSamples appends the interval-series rows the skipped cycles
// t+1..last would have committed. All sampled counters are cumulative
// and nothing moves while idle, so each row equals the state at the
// skip: only the cycle stamps differ. Keeping them preserves the
// byte-identical-artifact contract of the obs layer.
func (e *Engine) emitSkippedSamples(t, last int64) {
	if e.metInterval == 0 {
		return
	}
	// Stepped cycle u commits a row stamped u+1 when (u+1)%interval == 0:
	// row stamps are the multiples of the interval in [t+2, last+1].
	first := (t + 2 + e.metInterval - 1) / e.metInterval * e.metInterval
	for c := first; c <= last+1; c += e.metInterval {
		e.sampleInterval(c)
	}
}
