package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// result is everything one workload run (one child process) found. The
// contract's last-line JSON is a projection of it; the all-workloads
// mode reads it whole.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	Smoke      bool               `json:"smoke,omitempty"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NumCPU     int                `json:"nproc"`
	GoVersion  string             `json:"go"`
	Passes     int                `json:"passes"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`   // first few failed operations
	Mismatches []string           `json:"mismatches,omitempty"` // statistics outside reference tolerance
	Digest     string             `json:"digest,omitempty"`     // sha256 of the simulated/structural outputs
	ExactMatch *bool              `json:"exact_match,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Timings    []timing           `json:"timings,omitempty"`
	Units      map[string]float64 `json:"units,omitempty"`    // env.best: each unit's best seconds, serve_mix's best latencies
	Recorded   *workloadRef       `json:"recorded,omitempty"` // -record: this run's statistics as a new reference
	Spans      []span             `json:"spans,omitempty"`
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Mismatches) == 0 }

// env is the state a workload function works in.
type env struct {
	res     *result
	seconds float64
	smoke   bool
	record  bool
	ncpu    int // min(nproc, 4): the width of the scaling probes
	tr      *tracer
	repeat  bool // a repetition of work already counted: only failures are recorded
	ref     *reference
	digest  hash.Hash
	hashed  bool // something was folded into digest (serve_mix's bodies carry the build's revision and are not)

	// Least value seen under each key over all passes (see least, timed).
	bestOrder []string
	best      map[string]float64
}

func newEnv(workload string, seed int64, seconds float64, traced, smoke, record bool) *env {
	e := &env{
		res: &result{
			Workload: workload, Seed: seed, Traced: traced, Smoke: smoke,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
			Metrics: map[string]float64{},
		},
		seconds: seconds, smoke: smoke, record: record,
		ncpu:   min(runtime.NumCPU(), 4),
		ref:    loadReference(),
		digest: sha256.New(),

		best: map[string]float64{},
	}
	if traced {
		e.tr = newTracer()
	}
	if record {
		e.res.Recorded = &workloadRef{}
	}
	return e
}

// op counts one attempted operation (engine run, kernel call, request,
// output check) and records it as failed when ok is false.
func (e *env) op(ok bool, format string, args ...any) {
	if ok && e.repeat {
		return
	}
	e.res.Attempted++
	if !ok {
		e.res.Failed++
		if len(e.res.Failures) < 20 {
			e.res.Failures = append(e.res.Failures, fmt.Sprintf(format, args...))
		}
	}
}

// opsBehind counts the n operations behind one call into a layer (the
// engine runs of a sweep): all of them failed when the call did.
func (e *env) opsBehind(n int, err error, what string) {
	if err == nil {
		e.opsOK(n)
		return
	}
	e.res.Attempted += int64(n)
	e.res.Failed += int64(n)
	if len(e.res.Failures) < 20 {
		e.res.Failures = append(e.res.Failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// opsOK counts n operations that succeeded (repeated kernel calls, the
// proposals of a search, the hits of a warm phase).
func (e *env) opsOK(n int) {
	if !e.repeat {
		e.res.Attempted += int64(n)
	}
}

// check compares a simulated or structural statistic with the reference
// under the given predicate; a miss is a ref_mismatch, not a failed
// operation.
func (e *env) check(ok bool, format string, args ...any) {
	if !ok && !e.record { // a run that records the reference is not judged by the one it replaces
		e.res.Mismatches = append(e.res.Mismatches, fmt.Sprintf(format, args...))
	}
}

func (e *env) set(name string, v float64) { e.res.Metrics[name] = v }

// sample records a timing's median as the metric and keeps the count and
// supported tail for the report.
func (e *env) sample(name, unit string, xs []float64) {
	t := summarise(name, unit, xs)
	e.res.Metrics[name] = t.P50
	e.res.Timings = append(e.res.Timings, t)
}

// hashf folds output text into the run's digest.
func (e *env) hashf(format string, args ...any) {
	e.hashed = true
	fmt.Fprintf(e.digest, format, args...)
}

// firstOnly runs fn with tracing and success counting on only when
// first is true: the repetitions of set-up are traced and counted once
// (a failure is recorded whenever it happens).
func (e *env) firstOnly(first bool, fn func()) {
	tr := e.tr
	if !first {
		e.tr, e.repeat = nil, true
	}
	fn()
	e.tr, e.repeat = tr, false
}

// wide runs fn with GOMAXPROCS raised to min(nproc, 4) (go < 1.25 sizes
// the default from the host, not the CPU quota): the scaling probes of a
// traced run, whose numbers are layer metrics and carry no bound.
func (e *env) wide(fn func()) {
	old := runtime.GOMAXPROCS(e.ncpu)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// setup times the workload's set-up routine repeatedly — at least five
// times and until a quarter second of it has been seen (at most 5000
// times), because set-up is short next to the timed region (100 us for
// fault_resilience) and one reading would be mostly noise — and reports
// the median as setup_s. The state built last is the one the passes use.
func (e *env) setup(fn func(parent int)) {
	var walls []float64
	var total float64
	for i := 0; i < 5 || (total < 0.25 && i < 5000); i++ {
		e.firstOnly(i == 0, func() {
			walls = append(walls, e.tr.do(-1, "bench.setup", i, fn).Seconds())
		})
		total += walls[i]
		if e.smoke {
			break
		}
	}
	e.sample("setup_s", "s", walls)
}

// least keeps the smallest v seen under key over all passes. The
// sandbox's host slows the process down in bursts of seconds and never
// speeds it up, so the fastest of several repetitions of the same work on
// the same inputs is what the code costs and everything above it is the
// neighbours (README.md, Steadiness).
func (e *env) least(key string, v float64) {
	best, seen := e.best[key]
	if !seen {
		e.bestOrder = append(e.bestOrder, key)
	}
	if !seen || v < best {
		e.best[key] = v
	}
}

// timed runs one unit of the pass's work — one call into an entry point,
// named by key, identical in every pass — inside a span and keeps its
// best time. A whole pass is too long to fall between two bursts of the
// host; a unit is not, so a workload's wall_s is the sum of its units'
// best times. The heap is collected first (untimed), so that every unit
// starts from the live set alone whatever the units before it left
// behind: peak memory and the unit's own collections then repeat from
// pass to pass and run to run.
func (e *env) timed(key string, parent int, name string, id int, fn func(self int)) time.Duration {
	runtime.GC()
	d := e.tr.do(parent, name, id, fn)
	e.least(key, d.Seconds())
	return d
}

// bests returns the least value of every key that starts with prefix, in
// first-seen order.
func (e *env) bests(prefix string) []float64 {
	var xs []float64
	for _, key := range e.bestOrder {
		if strings.HasPrefix(key, prefix) {
			xs = append(xs, e.best[key])
		}
	}
	return xs
}

// bestSum is the time the units under prefix take when each runs at its
// best.
func (e *env) bestSum(prefix string) float64 {
	var s float64
	for _, x := range e.bests(prefix) {
		s += x
	}
	return s
}

// passes runs the workload's pass — a fixed list of units — again and
// again until another whole pass no longer fits in the requested
// seconds. Every pass does identical work on identical inputs, so counts
// agree and unit times are comparable; only the first is counted. The
// workload makes its end-to-end metrics from the units' best times
// afterwards; the numbers a pass returns are layer metrics and counts,
// reported as the median over the passes. before, when not nil, runs
// untimed ahead of each pass.
func (e *env) passes(before func(pass int), fn func(parent, pass int) map[string]float64) {
	var all []map[string]float64
	var walls []float64
	var longest float64
	budget := e.seconds
	if e.tr != nil {
		budget *= 0.75 // the layer probes that follow a traced run's passes need the rest
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		if before != nil {
			before(pass)
		}
		// A traced run traces every pass, so that its unit times carry the
		// cost of tracing, but keeps the spans of the first only.
		e.repeat = pass > 0
		kept := e.tr.len()
		d := e.tr.do(-1, "bench.pass", pass, func(self int) { all = append(all, fn(self, pass)) })
		if pass > 0 {
			e.tr.truncate(kept)
		}
		e.repeat = false
		walls = append(walls, d.Seconds())
		longest = max(longest, d.Seconds())
		if e.smoke || time.Since(start).Seconds()+longest > budget {
			break
		}
	}
	e.res.Passes = len(all)
	e.res.Units = e.best
	e.set("bench.passes", float64(len(all)))
	e.sample("bench.pass_wall_s", "s", walls)
	for name := range all[0] {
		var xs []float64
		for _, m := range all {
			xs = append(xs, m[name])
		}
		e.set(name, median(xs))
	}
}

// finish closes the run: digest, exactness against the reference,
// failure share, peak memory and (traced) the per-layer shares of the
// traced pass.
func (e *env) finish() *result {
	r := e.res
	if e.hashed {
		r.Digest = hex.EncodeToString(e.digest.Sum(nil))
	}
	if ref := e.ref.workload(r.Workload); ref != nil && ref.Digest != "" && e.ref.Seed == r.Seed && !e.smoke {
		exact := ref.Digest == r.Digest
		r.ExactMatch = &exact
	}
	if e.record {
		r.Recorded.Digest = r.Digest
	}
	if r.Attempted > 0 {
		e.set("fail_frac", float64(r.Failed)/float64(r.Attempted))
	}
	e.set("ref_mismatch", float64(len(r.Mismatches)))
	e.set("peak_rss_mb", peakRSSMiB())
	if e.tr != nil {
		var pass []span
		// The shares are taken over the traced pass alone: set-up and the
		// layer probes are spans too, but not part of the wall they explain.
		idx := map[int]int{}
		for i, s := range e.tr.spans {
			p, inPass := idx[s.Parent]
			if s.Name == "bench.pass" {
				p, inPass = -1, true
			}
			if inPass {
				idx[i] = len(pass)
				s.Parent = p
				pass = append(pass, s)
			}
		}
		for layer, s := range attributeWall(pass) {
			e.set("self_s."+layer, s)
		}
		e.set("bench.traced_wall_s", rootWall(pass))
		e.set("bench.spans", float64(len(e.tr.spans)))
		r.Spans = e.tr.spans
	}
	return r
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
