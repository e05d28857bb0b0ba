package sim

import (
	"polarstar/internal/route"
)

// Per-lane health for multipath routing: each spanning-tree lane is
// demoted the moment any of its tree edges dies and promoted back only
// after the tree is whole again AND a bounded-backoff re-probe delay has
// passed — flapping links cannot make a lane oscillate cycle-to-cycle.
// All writes happen in the serial applyFaults section; the parallel
// phases (PathLane's spray filter, laneFailover's target scan) only read
// `up`, the same ownership discipline as deadChan.
//
// The base (minimal/UGAL) lane 0 has no health entry: its liveness is
// per-path via LiveFn and the repair-table/escape fallbacks, exactly as
// without multipath.

const (
	// laneProbeBase is the re-probe delay after a lane's first demotion:
	// once its tree edges are all live again, the lane stays out of the
	// spray for this many cycles before being promoted (modelling probe
	// traffic confirming the repair).
	laneProbeBase = 64
	// laneProbeCap bounds the exponential demotion backoff, so a lane on
	// a flapping link re-probes at most this far apart.
	laneProbeCap = 4096
	// laneNever parks a probe until the lane's tree heals.
	laneNever = int64(1) << 62
)

// laneHealth tracks the demotion state of every tree lane.
type laneHealth struct {
	mp        *route.MultiPath
	up        []bool  // lane carries traffic (read by the parallel phases)
	deadChans []int32 // dead channels of the lane's tree
	probeAt   []int64 // cycle the healed lane may rejoin; laneNever while broken
	backoff   []int64 // next re-probe delay (doubles per demotion, capped)

	demoted, promoted int64 // transition counters for obs.SimLanes
}

// newLaneHealth starts with every tree lane up.
func newLaneHealth(mp *route.MultiPath) *laneHealth {
	k := mp.TreeLanes()
	h := &laneHealth{
		mp:        mp,
		up:        make([]bool, k),
		deadChans: make([]int32, k),
		probeAt:   make([]int64, k),
		backoff:   make([]int64, k),
	}
	for l := 0; l < k; l++ {
		h.up[l] = true
		h.probeAt[l] = laneNever
		h.backoff[l] = laneProbeBase
	}
	return h
}

// rescan recounts each lane's dead tree channels (chanLane) after plan
// events landed, demoting freshly wounded lanes and arming the re-probe
// timer on lanes whose tree just became whole. Only the wounded lanes
// stall — the others carry traffic with no global repair pause.
func (h *laneHealth) rescan(t int64, deadChan []bool, chanLane []int8) {
	clear(h.deadChans)
	for c, l := range chanLane {
		if l > 0 && deadChan[c] {
			h.deadChans[l-1]++
		}
	}
	for l, dead := range h.deadChans {
		switch {
		case dead > 0 && h.up[l]:
			h.up[l] = false
			h.demoted++
			h.probeAt[l] = laneNever
			if h.backoff[l] < laneProbeCap {
				h.backoff[l] *= 2
			}
		case dead > 0:
			h.probeAt[l] = laneNever // still (or again) broken
		case dead == 0 && !h.up[l] && h.probeAt[l] == laneNever:
			h.probeAt[l] = t + h.backoff[l] // healed: wait out the backoff
		}
	}
}

// promote returns healed lanes to service once their re-probe delay has
// passed. Called every fault cycle; promotions inside an idle stretch
// are unobservable (no packets exist), so the event-horizon skip and the
// stepped engine agree bit-for-bit.
func (h *laneHealth) promote(t int64) {
	for l := range h.up {
		if !h.up[l] && h.deadChans[l] == 0 && t >= h.probeAt[l] {
			h.up[l] = true
			h.promoted++
			h.probeAt[l] = laneNever
		}
	}
}
