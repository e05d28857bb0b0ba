package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// childTimeout bounds one workload run; the contract gives a run 180 s.
const childTimeout = 170 * time.Second

// runChild re-executes this binary for one workload run, so that peak
// memory and GC state are the workload's own, waits for it to end, and
// parses the result object from the last line of its output.
func runChild(workload string, seed int64, seconds float64, traced, smoke, record bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0", "-full"}
	if traced {
		args[7] = "1"
	}
	if smoke {
		args = append(args, "-smoke")
	}
	if record {
		args = append(args, "-record", "child")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // a failed check exits 1 but still prints its result
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<28) // a traced serve_mix result carries ~22 000 spans on one line
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil || res.Workload != workload {
		return nil, fmt.Errorf("%s: no result (run error: %v, parse error: %v)", workload, runErr, err)
	}
	return &res, nil
}

// runsFile is what -out writes and -compare reads.
type runsFile struct {
	Runs []*result `json:"runs"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll is the default mode: every workload untraced, then traced, in
// child processes; the full report; exit 1 if any check failed.
func runAll(seed int64, seconds float64, smoke bool, recordPath, outPath, tracePath string) int {
	exit := 0
	var file runsFile
	spans := map[string][]span{}
	newRef := reference{Seed: seed, Workloads: map[string]*workloadRef{}}
	for _, w := range workloads {
		plain, err := runChild(w.Name, seed, seconds, false, smoke, recordPath != "")
		if err != nil {
			fmt.Println("ERROR:", err)
			exit = 1
			continue
		}
		traced, err := runChild(w.Name, seed, seconds, true, smoke, recordPath != "")
		if err != nil {
			fmt.Println("ERROR:", err)
			exit = 1
			continue
		}
		if !plain.correct() || !traced.correct() {
			exit = 1
		}
		// The traced driver replaces sim.Sweep by its steps and the one
		// resilience call by four: its outputs must still be the same.
		if plain.Digest != traced.Digest {
			fmt.Printf("MISMATCH: %s: traced outputs differ from untraced (digest %.16s vs %.16s)\n", w.Name, traced.Digest, plain.Digest)
			exit = 1
		}
		printWorkload(w, plain, traced)
		spans[w.Name] = traced.Spans
		traced.Spans = nil
		file.Runs = append(file.Runs, plain, traced)
		if plain.Recorded != nil && plain.Digest != "" { // serve_mix has no simulated statistics to pin
			newRef.Workloads[w.Name] = plain.Recorded
		}
	}
	if outPath != "" {
		if err := writeJSON(outPath, file); err != nil {
			fatalf("write %s: %v", outPath, err)
		}
	}
	if tracePath != "" {
		if err := writeJSON(tracePath, spans); err != nil {
			fatalf("write %s: %v", tracePath, err)
		}
	}
	if recordPath != "" && exit == 0 {
		if err := writeJSON(recordPath, newRef); err != nil {
			fatalf("write %s: %v", recordPath, err)
		}
		fmt.Println("recorded reference to", recordPath)
	}
	if exit != 0 {
		fmt.Println("FAIL: at least one operation failed or one statistic is outside the reference tolerance")
	}
	return exit
}

// printWorkload prints one workload's block of the report: the
// end-to-end metrics from the untraced run, the per-layer metrics from
// the traced run, and what relates the two runs.
func printWorkload(w workloadDef, plain, traced *result) {
	fmt.Printf("\n== %s  (seed %d, GOMAXPROCS %d of %d CPUs, %s, host time unless a unit says cycles)\n", w.Name, plain.Seed, plain.GOMAXPROCS, plain.NumCPU, plain.GoVersion)
	fmt.Printf("   why: %s\n", w.Why)
	fmt.Printf("   end to end (untraced run, %d pass(es), %d operations):\n", plain.Passes, plain.Attempted)
	tails := map[string]timing{}
	for _, t := range append(plain.Timings, traced.Timings...) {
		tails[t.Metric] = t
	}
	row := func(r *result, d metricDef) {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return
		}
		extra := ""
		if t, ok := tails[d.Name]; ok && t.N > 1 {
			extra = fmt.Sprintf("  (median of %d", t.N)
			if t.TailP > 0 {
				extra += fmt.Sprintf(", p%g %.4g", t.TailP, t.Tail)
			}
			extra += ")"
		}
		fmt.Printf("     %-28s %14.6g %-6s%s\n", d.Name, v, d.Unit, extra)
	}
	for _, d := range endToEnd {
		row(plain, d)
	}
	for _, d := range issueE2E {
		row(plain, d)
	}
	if plain.ExactMatch != nil {
		fmt.Printf("     %-28s %14v        (digest equals the reference digest; reported, not required)\n", "exact_match", *plain.ExactMatch)
	}
	for _, r := range []*result{plain, traced} {
		for _, f := range r.Failures {
			fmt.Println("     FAILED:", f)
		}
		for _, m := range r.Mismatches {
			fmt.Println("     MISMATCH:", m)
		}
	}
	fmt.Printf("   per layer (traced run; 0-valued metrics of untouched layers omitted):\n")
	for _, d := range layerMetrics {
		if traced.Metrics[d.Name] != 0 {
			row(traced, d)
		}
	}
	var selfSum float64
	for _, l := range layers {
		selfSum += traced.Metrics["self_s."+l]
	}
	if tw, pw := traced.Metrics["wall_s"], plain.Metrics["wall_s"]; tw > 0 && pw > 0 {
		fmt.Printf("     %-28s %14.4f ratio   (wall_s of the traced run %.3f s ÷ of the untraced run %.3f s − 1)\n", "trace_overhead_frac", tw/pw-1, tw, pw)
	}
	if tw := traced.Metrics["bench.traced_wall_s"]; tw > 0 {
		fmt.Printf("     %-28s %14.4f ratio   (per-layer self times sum to %.3f s of the traced pass)\n", "self_cover_frac", selfSum/tw, selfSum)
	}
}

// runAA measures the benchmark against itself: the untraced set twice,
// sides alternating per repetition, and B judged against A exactly as a
// change would be judged against its parent.
func runAA(seed int64, seconds float64, reps int, smoke bool, outPath string) int {
	var a, b runsFile
	for rep := 0; rep < reps; rep++ {
		for _, w := range workloads {
			first, second := &a, &b
			if rep%2 == 1 {
				first, second = &b, &a
			}
			for _, side := range []*runsFile{first, second} {
				res, err := runChild(w.Name, seed+int64(rep), seconds, false, smoke, false)
				if err != nil {
					fmt.Println("ERROR:", err)
					return 1
				}
				side.Runs = append(side.Runs, res)
			}
		}
	}
	if outPath != "" {
		if err := writeJSON(outPath, runsFile{append(a.Runs, b.Runs...)}); err != nil {
			fatalf("write %s: %v", outPath, err)
		}
	}
	return compareRuns(a, b)
}

func compareFiles(pathA, pathB string) int {
	var files [2]runsFile
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fatalf("read %s: %v", p, err)
		}
	}
	return compareRuns(files[0], files[1])
}

// verdict judges one end-to-end metric of B against A: "worse" when B's
// median is worse than A's by more than the bound, "unresolved" when the
// spread of A's own runs is wider than the bound (then the difference
// cannot be told from noise), else "ok".
func verdict(d metricDef, a, b []float64) (ratio float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "no base"
	}
	ratio = mb / ma
	worse := ratio - 1
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case len(a) >= 4 && spread(a) > d.Bound:
		return ratio, "unresolved"
	case worse > d.Bound:
		return ratio, "worse"
	}
	return ratio, "ok"
}

// compareRuns prints, per workload and end-to-end metric, both medians,
// the ratio B÷A with its base, the spread of each side and the verdict
// against the bound. Only untraced runs are compared.
func compareRuns(a, b runsFile) int {
	collect := func(f runsFile) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range f.Runs {
			if r.Traced {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for k, v := range r.Metrics {
				out[r.Workload][k] = append(out[r.Workload][k], v)
			}
		}
		return out
	}
	ma, mb := collect(a), collect(b)
	exit := 0
	fmt.Printf("%-17s %-22s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "B/A", "spreadA", "spreadB", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), issueE2E[2:]...) {
			xa, xb := ma[w.Name][d.Name], mb[w.Name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			bound := d
			if bound.Bound == 0 {
				bound.Bound = endToEnd[1].Bound // the issue's names are host times and rates: wall_s's bound
			}
			ratio, v := verdict(bound, xa, xb)
			if v == "worse" {
				exit = 1
			}
			fmt.Printf("%-17s %-22s %12.6g %12.6g %8.4f %8.4f %8.4f %6.2f  %s\n", w.Name, d.Name, median(xa), median(xb), ratio, spread(xa), spread(xb), bound.Bound, v)
		}
	}
	var names []string
	for _, f := range []runsFile{a, b} {
		for _, r := range f.Runs {
			if !r.correct() {
				names = append(names, r.Workload)
			}
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		fmt.Println("FAIL: runs with failed operations or reference mismatches:", names)
		exit = 1
	}
	return exit
}
