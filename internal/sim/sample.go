package sim

import "polarstar/internal/obs"

// sampleInterval appends one cumulative-counter row to the interval
// series. It runs in the serial commit phase — after every shard's
// arbitration — so the sums it reads are the committed end-of-cycle state
// and identical for any worker count; open parked spans are settled
// through the row's last cycle first, so Stalled counts every attempt an
// attempt-every-cycle engine would have failed by then. The series slice
// was presized in initMetrics; the append never reallocates.
func (e *Engine) sampleInterval(cycle int64) {
	row := obs.IntervalRow{Cycle: cycle, Generated: e.pktCtr}
	for _, sh := range e.shards {
		ahead := e.settleOpenSpans(sh, cycle-1)
		row.Delivered += sh.deliveredAll
		row.Injected += sh.met.injected
		row.Stalled += sh.met.stalls() - ahead
	}
	e.met.Series = append(e.met.Series, row)
}
