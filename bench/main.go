// Command bench is the repository's benchmark: four workloads that
// between them exercise every layer, each measured end to end from an
// untraced run through the entry points users call and, in a separate
// traced run, taken apart into per-layer numbers by timing calls into
// the layers' exported functions from outside. See README.md.
//
// The driver's contract form runs one workload in this process:
//
//	go run ./bench --workload fig_sweep --seed 1 --seconds 30 --trace 0
//
// and prints a JSON object as the last line of standard output. Without
// --workload it runs all four, untraced then traced, each in a fresh
// child process, and prints the full report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

var workloadFns = map[string]func(*env){
	"fig_sweep":        runFigSweep,
	"fault_resilience": runFaultResilience,
	"graph_search":     runGraphSearch,
	"serve_mix":        runServeMix,
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in-process and print the contract's JSON line (default: all four, each in a child process)")
		seed     = flag.Int64("seed", 1, "seed of every generated input: request keys, swap walks, fault plans, patterns")
		seconds  = flag.Float64("seconds", runSeconds, "measurement budget per run: the workload's pass (2-4 s) repeats while another whole pass fits")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		full     = flag.Bool("full", false, "with -workload: print the whole result object as the last line instead of the contract's projection")
		smoke    = flag.Bool("smoke", false, "tiny sizes (one spec, one panel, 20 warm requests); checks the harness, measures nothing")
		record   = flag.String("record", "", "all-workloads mode: write this run's statistics as the new reference to this file (use -seed 1 on the parent commit)")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables and exit")
		aa       = flag.Bool("aa", false, "run the untraced set twice (A then B, alternating per workload) and judge B against A by each bound")
		reps     = flag.Int("reps", 1, "-aa: runs per workload per side")
		compare  = flag.Bool("compare", false, "compare two files written by -out: bench -compare a.json b.json")
		out      = flag.String("out", "", "all-workloads and -aa modes: also write every run's result object to this JSON file")
		traceOut = flag.String("trace-out", "", "all-workloads mode: write the traced runs' spans to this JSON file")
	)
	flag.Parse()

	// Everything that is timed runs on one P. The sandbox's two vCPUs are
	// at times scheduled onto one host thread for seconds on end (two busy
	// threads then each run at half speed, README.md, Steadiness), so
	// anything that keeps two threads busy measures the host's scheduler.
	// The layer probes that measure parallel scaling widen it themselves
	// (env.wide).
	runtime.GOMAXPROCS(1)

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		fn, ok := workloadFns[*workload]
		if !ok {
			fatalf("unknown workload %q", *workload)
		}
		e := newEnv(*workload, *seed, *seconds, *trace != 0, *smoke, *record != "")
		fn(e)
		res := e.finish()
		os.Exit(printContract(res, *full))
	case *aa:
		os.Exit(runAA(*seed, *seconds, *reps, *smoke, *out))
	default:
		os.Exit(runAll(*seed, *seconds, *smoke, *record, *out, *traceOut))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// contractLine is the last line the driver reads.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// project picks the metrics the contract asks of this kind of run:
// every end_to_end metric untraced, every per_layer metric traced (0
// where the workload does not touch the layer).
func project(res *result) contractLine {
	defs := endToEnd
	if res.Traced {
		defs = perLayer()
	}
	line := contractLine{Correct: res.correct(), Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]contractMetric{}}
	for _, d := range defs {
		line.Metrics[d.Name] = contractMetric{res.Metrics[d.Name], d.Unit}
	}
	return line
}

// printContract writes the human summary and then the result as the
// last line; the exit code is non-zero when a check failed.
func printContract(res *result, full bool) int {
	fmt.Printf("workload %s seed %d traced %v: GOMAXPROCS %d of %d CPUs, %s, %d pass(es), %d operations, %d failed, %d reference mismatches\n",
		res.Workload, res.Seed, res.Traced, res.GOMAXPROCS, res.NumCPU, res.GoVersion, res.Passes, res.Attempted, res.Failed, len(res.Mismatches))
	for _, f := range res.Failures {
		fmt.Println("FAILED:", f)
	}
	for _, m := range res.Mismatches {
		fmt.Println("MISMATCH:", m)
	}
	if res.ExactMatch != nil {
		fmt.Printf("exact_match %v (digest %.16s; equality with the reference digest is reported, not required)\n", *res.ExactMatch, res.Digest)
	}
	var line any = project(res)
	if full {
		line = res
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(enc))
	if !res.correct() {
		return 1
	}
	return 0
}
