package sim

import (
	"errors"
	"flag"

	"polarstar/internal/graph"
	"polarstar/internal/obs"
)

// FaultFlags is the live-fault command-line surface shared by the CLIs
// that inject a Plan into simulator runs (pssim, psfaults).
type FaultFlags struct {
	plan    *string
	mtbf    *float64
	repair  *int64
	delay   *int64
	retries *int
	backoff *int64
}

// Flags registers -fault-plan, -mtbf, -fault-repair, -repair-delay,
// -retries and -retry-backoff on the default flag set. Call before
// flag.Parse.
func Flags() *FaultFlags {
	return &FaultFlags{
		plan:    flag.String("fault-plan", "", "live fault plan file: one '<cycle> link-down|link-up|router-down|router-up <args>' per line"),
		mtbf:    flag.Float64("mtbf", 0, "additionally generate random link failures with this mean-cycles-between-failures (0: none)"),
		repair:  flag.Int64("fault-repair", 0, "repair delay in cycles for -mtbf failures (0: permanent)"),
		delay:   flag.Int64("repair-delay", 0, "table-reconvergence stall in cycles after each applied fault event (0: instant repair)"),
		retries: flag.Int("retries", 0, "max source retries per packet under faults (0: default policy)"),
		backoff: flag.Int64("retry-backoff", 0, "base retry backoff in cycles, doubling per retry (0: default)"),
	}
}

// Active reports whether a plan file or an MTBF generator was requested.
func (f *FaultFlags) Active() bool { return *f.plan != "" || *f.mtbf > 0 }

// retry layers the explicitly set retry flags over the default policy
// (0 keeps each default).
func (f *FaultFlags) retry() RetryPolicy {
	rp := DefaultRetryPolicy()
	if *f.retries > 0 {
		rp.MaxRetries = *f.retries
	}
	if *f.backoff > 0 {
		rp.BackoffBase = *f.backoff
	}
	return rp
}

// Apply loads the requested plan into params — the plan file merged with
// MTBF failures drawn from params.Seed over the run's cycle horizon,
// validated against g — together with the retry policy and the repair
// stall. Without -fault-plan/-mtbf it leaves params untouched and
// refuses -repair-delay, whose stall only follows a fault event.
func (f *FaultFlags) Apply(params *Params, g *graph.Graph) error {
	if !f.Active() {
		if *f.delay != 0 {
			return errors.New("-repair-delay stalls routing after fault events; combine it with -fault-plan or -mtbf")
		}
		return nil
	}
	horizon := int64(params.Warmup + params.Measure + params.Drain)
	plan, err := LoadPlan(*f.plan, *f.mtbf, *f.repair, g, horizon, params.Seed)
	if err != nil {
		return err
	}
	params.Plan, params.Retry, params.RepairDelay = plan, f.retry(), *f.delay
	return nil
}

// Scripted sets the retry policy and the repair stall of runs whose
// fault events the caller scripts itself (psfaults -resilience). The
// script would replace -fault-plan, -mtbf and -fault-repair, so each is
// refused.
func (f *FaultFlags) Scripted(params *Params) error {
	if f.Active() || *f.repair != 0 {
		return errors.New("-fault-plan/-mtbf/-fault-repair drive -traffic runs; -resilience scripts its own failures (-counts, -resilience-mtbf, -resilience-repair)")
	}
	params.Retry, params.RepairDelay = f.retry(), *f.delay
	return nil
}

// Manifest is params.FaultManifest with the generator flags filled in.
func (f *FaultFlags) Manifest(params Params) *obs.FaultPlan {
	return params.FaultManifest(*f.plan, *f.mtbf, *f.repair)
}
