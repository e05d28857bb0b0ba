package faults

// Live fault plans are defined in internal/sim (faults imports sim for
// the degraded-traffic sweep, so the plan type must live downstream to
// keep the dependency one-way); this file re-exports them under the
// faults namespace, which is where users of the resilience experiments
// look for them.

import "polarstar/internal/sim"

// Plan is a deterministic schedule of live link/router fault events for
// the cycle-level simulator (sim.Params.Plan).
type Plan = sim.Plan

// FaultEvent is one scripted topology change of a Plan.
type FaultEvent = sim.FaultEvent

// RetryPolicy bounds the source-retry behavior of fault-injected runs.
type RetryPolicy = sim.RetryPolicy

// Plan constructors, re-exported from sim.
var (
	// ParsePlan reads the canonical text form of a plan.
	ParsePlan = sim.ParsePlan
	// RandomPlan generates a seeded random MTBF/MTTR failure schedule.
	RandomPlan = sim.RandomPlan
	// DefaultRetryPolicy is the retry configuration used when
	// sim.Params.Retry is left zero.
	DefaultRetryPolicy = sim.DefaultRetryPolicy
)
