package sim

import (
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
	retries *int
	backoff *int64
	cap     *int64
	maxAge  *int64
}

// Flags registers -fault-plan, -mtbf, -fault-repair, -retries,
// -retry-backoff, -retry-cap and -pkt-max-age on the default flag set.
// Call before flag.Parse.
func Flags() *FaultFlags {
	return &FaultFlags{
		plan:    flag.String("fault-plan", "", "live fault plan file: one '<cycle> link-down|link-up|router-down|router-up <args>' per line"),
		mtbf:    flag.Float64("mtbf", 0, "additionally generate random link failures with this mean-cycles-between-failures (0: none)"),
		repair:  flag.Int64("fault-repair", 0, "repair delay in cycles for -mtbf failures (0: permanent)"),
		retries: flag.Int("retries", 0, "max source retries per packet under faults (0: default policy)"),
		backoff: flag.Int64("retry-backoff", 0, "base retry backoff in cycles, doubling per retry (0: default)"),
		cap:     flag.Int64("retry-cap", 0, "retry backoff cap in cycles (0: default)"),
		maxAge:  flag.Int64("pkt-max-age", 0, "per-packet age limit in cycles under faults (0: default; <0: unlimited)"),
	}
}

// Active reports whether a plan file or an MTBF generator was requested.
func (f *FaultFlags) Active() bool { return *f.plan != "" || *f.mtbf > 0 }

// Retry layers the explicitly set retry flags over the default policy
// (0 keeps each default; -pkt-max-age < 0 disables the age limit).
func (f *FaultFlags) Retry() RetryPolicy {
	rp := DefaultRetryPolicy()
	if *f.retries > 0 {
		rp.MaxRetries = *f.retries
	}
	if *f.backoff > 0 {
		rp.BackoffBase = *f.backoff
	}
	if *f.cap > 0 {
		rp.BackoffCap = *f.cap
	}
	if *f.maxAge > 0 {
		rp.MaxAge = *f.maxAge
	} else if *f.maxAge < 0 {
		rp.MaxAge = 0
	}
	return rp
}

// Apply loads the requested plan into params — the plan file merged with
// MTBF failures drawn from params.Seed over the run's cycle horizon,
// validated against g — together with the retry policy. Without
// -fault-plan/-mtbf it leaves params untouched.
func (f *FaultFlags) Apply(params *Params, g *graph.Graph) error {
	if !f.Active() {
		return nil
	}
	horizon := int64(params.Warmup + params.Measure + params.Drain)
	plan, err := LoadPlan(*f.plan, *f.mtbf, *f.repair, g, horizon, params.Seed)
	if err != nil {
		return err
	}
	params.Plan = plan
	params.Retry = f.Retry()
	return nil
}

// Manifest is params.FaultManifest with the generator flags filled in.
func (f *FaultFlags) Manifest(params Params) *obs.FaultPlan {
	return params.FaultManifest(*f.plan, *f.mtbf, *f.repair)
}
