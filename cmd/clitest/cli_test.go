package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
)

var binDir string

var binaries = []string{
	"psgen", "psroute", "psscale", "psbisect",
	"pssim", "psfig", "psfaults", "psmotifs",
	"pssearch", "psserve",
}

// examples are the public-API walkthroughs under examples/, built
// alongside the binaries.
var examples = []string{"designspace", "faulttolerance", "quickstart", "routingdemo", "trafficsim"}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "polarstar-clitest")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	args := []string{"build", "-o", dir}
	for _, b := range binaries {
		args = append(args, "polarstar/cmd/"+b)
	}
	for _, e := range examples {
		args = append(args, "polarstar/examples/"+e)
	}
	build := exec.Command("go", args...)
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building binaries: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	// The gate needs every invocation of the suite, so a -run or -skip
	// subset (TestRegen's among them) and -list skip it. A test that
	// failed early may not have passed all of its flags.
	if flag.Lookup("test.run").Value.String() == "" && flag.Lookup("test.skip").Value.String() == "" &&
		flag.Lookup("test.list").Value.String() == "" {
		if unread := unreadFlags(); len(unread) > 0 {
			fmt.Fprintf(os.Stderr, "--- FAIL: flag readers (every registered flag needs a case that passes it)\n\t%s\n",
				strings.Join(unread, "\n\t"))
			code = 1
		}
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// flagAllowlist names the "bin -flag" pairs no invocation passes, each
// with its reason; an entry whose flag gains a reader or goes fails the
// gate.
var flagAllowlist = map[string]string{}

// passed records every (binary, flag) pair an invocation gave, for
// unreadFlags.
var passed = struct {
	sync.Mutex
	flags map[[2]string]bool
}{flags: map[[2]string]bool{}}

// command is the one way the tests invoke a built binary: it records
// each flag args passes to bin.
func command(bin string, args ...string) *exec.Cmd {
	passed.Lock()
	for _, a := range args {
		if name, ok := strings.CutPrefix(a, "-"); ok {
			name, _, _ = strings.Cut(strings.TrimPrefix(name, "-"), "=")
			passed.flags[[2]string{bin, name}] = true
		}
	}
	passed.Unlock()
	return exec.Command(filepath.Join(binDir, bin), args...)
}

// unreadFlags is the flag-reader gate: it returns, as "bin -flag", every
// flag in a binary's -help listing that no invocation passed, plus each
// stale allowlist entry. A flag whose listing block (name, type, usage,
// default) several binaries share is registered by shared code
// (cli.Register, sim.Flags), so passing it to any of them reads it.
func unreadFlags() []string {
	listings := map[string][]string{} // listing block → "bin -flag" of each binary it is in
	read := map[string]bool{}         // listing block → some invocation passed it
	registered := map[string]bool{}
	for _, b := range binaries {
		out, _ := command(b, "-help").CombinedOutput()
		for _, block := range strings.Split(string(out), "\n  -")[1:] {
			name := strings.Fields(block)[0]
			listings[block] = append(listings[block], b+" -"+name)
			read[block] = read[block] || passed.flags[[2]string{b, name}]
			registered[b+" -"+name] = true
		}
	}
	var unread []string
	for block, keys := range listings {
		for _, key := range keys {
			if _, allowed := flagAllowlist[key]; read[block] && allowed {
				unread = append(unread, key+": allowlisted, but an invocation passes it")
			} else if !read[block] && !allowed {
				unread = append(unread, key+": no invocation passes it")
			}
		}
	}
	for key := range flagAllowlist {
		if !registered[key] {
			unread = append(unread, key+": allowlisted, but no binary registers it")
		}
	}
	sort.Strings(unread)
	return unread
}

// run executes one built binary and returns its stdout, failing the test
// on a non-zero exit or empty output.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\nstderr: %s", bin, strings.Join(args, " "), err, stderr.String())
	}
	if stdout.Len() == 0 {
		t.Fatalf("%s %s: empty stdout", bin, strings.Join(args, " "))
	}
	return stdout.String()
}

// artifact reads and decodes a -metrics JSON file.
func artifact(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics artifact: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("metrics artifact %s: %v", path, err)
	}
	return m
}

// field walks path through a decoded artifact: object keys, and decimal
// indices into arrays.
func field(t *testing.T, m map[string]any, path ...string) any {
	t.Helper()
	var cur any = m
	for _, k := range path {
		var next any
		switch c := cur.(type) {
		case map[string]any:
			next = c[k]
		case []any:
			if i, err := strconv.Atoi(k); err == nil && i >= 0 && i < len(c) {
				next = c[i]
			}
		}
		if next == nil {
			t.Fatalf("artifact missing field %s", strings.Join(path, "."))
		}
		cur = next
	}
	return cur
}

func TestPsgen(t *testing.T) {
	out := run(t, "psgen", "-topo", "er", "-q", "5", "-stats")
	if !strings.Contains(out, "31") {
		t.Errorf("psgen er q=5 stats missing order 31:\n%s", out)
	}
}

func TestPsroute(t *testing.T) {
	out := run(t, "psroute", "-spec", "ps-iq-small", "-src", "0", "-dst", "5")
	if !strings.Contains(out, "0") || !strings.Contains(out, "5") {
		t.Errorf("psroute output missing endpoints:\n%s", out)
	}
}

func TestPsscale(t *testing.T) {
	out := run(t, "psscale", "-fig", "7", "-lo", "8", "-hi", "10")
	if !strings.Contains(out, "radix") {
		t.Errorf("psscale fig 7 missing header:\n%s", out)
	}
}

func TestPsbisect(t *testing.T) {
	out := run(t, "psbisect", "-lo", "8", "-hi", "8")
	if !strings.Contains(out, "8") {
		t.Errorf("psbisect radix-8 sweep output:\n%s", out)
	}
}

// TestPssimMetrics is the acceptance check of the telemetry layer: a
// small pssim run must emit latency quantiles, per-channel occupancy
// high-water marks and stall counters, and an equally seeded re-run must
// reproduce the artifact byte for byte with timing disabled.
func TestPssimMetrics(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.json")
	args := []string{"-spec", "ps-iq-small", "-cycles", "60", "-loads", "0.2",
		"-seed", "7", "-workers", "2", "-metrics", out, "-metrics-timing=false"}
	stdout := run(t, "pssim", args...)
	if !strings.Contains(stdout, "0.2") {
		t.Errorf("pssim sweep output missing the load point:\n%s", stdout)
	}
	m := artifact(t, out)
	if got := field(t, m, "manifest", "tool"); got != "pssim" {
		t.Errorf("manifest tool = %v", got)
	}
	points := field(t, m, "sim", "points").([]any)
	if len(points) != 1 {
		t.Fatalf("sim.points has %d entries, want 1", len(points))
	}
	p := points[0].(map[string]any)
	lat := field(t, p, "latency_cycles").(map[string]any)
	for _, q := range []string{"p50", "p95", "p99"} {
		v, ok := lat[q].(float64)
		if !ok || v <= 0 {
			t.Errorf("latency quantile %s = %v, want > 0", q, lat[q])
		}
	}
	hwm := field(t, p, "channel_occupancy_hwm").(map[string]any)
	if v, ok := hwm["max"].(float64); !ok || v <= 0 {
		t.Errorf("channel occupancy max = %v, want > 0", hwm["max"])
	}
	for _, k := range []string{"stall_inject", "stall_eject", "stall_channel", "stall_credit"} {
		if _, ok := p[k]; !ok {
			t.Errorf("sim point missing stall counter %s", k)
		}
	}

	first, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	run(t, "pssim", args...)
	second, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("equal-seed re-run produced a different metrics artifact")
	}

	// The metrics payload must also be worker-count invariant: only the
	// manifest args (which echo the flags) may differ.
	out4 := filepath.Join(t.TempDir(), "m4.json")
	args4 := append(append([]string{}, args...), "-workers", "4")
	for i, a := range args4 {
		if a == out {
			args4[i] = out4
		}
	}
	run(t, "pssim", args4...)
	if a, b := artifact(t, out), artifact(t, out4); !reflect.DeepEqual(a["sim"], b["sim"]) {
		t.Error("sim metrics differ between -workers 2 and -workers 4")
	}
}

// TestPssearchMetrics is the acceptance check of the search CLI: an
// equally seeded re-run must reproduce stdout, the checkpoint, the best
// graph and the metrics payload byte for byte regardless of -workers,
// resuming the checkpoint at the same epoch target must be a byte-stable
// no-op, and resuming to a higher target must continue the run.
func TestPssearchMetrics(t *testing.T) {
	tmp := t.TempDir()
	runArgs := func(workers int, tag string) (stdout, cp, best, metrics string) {
		cp = filepath.Join(tmp, "cp-"+tag+".json")
		best = filepath.Join(tmp, "best-"+tag+".txt")
		metrics = filepath.Join(tmp, "m-"+tag+".json")
		stdout = run(t, "pssearch", "-start", "jellyfish:64,4", "-seed", "5",
			"-searchers", "3", "-epochs", "3", "-iters", "150",
			"-temp", "20", "-cooling", "0.5", "-resync", "64",
			"-workers", fmt.Sprint(workers),
			"-checkpoint", cp, "-best-out", best,
			"-metrics", metrics, "-metrics-timing=false")
		return
	}
	out1, cp1, best1, m1 := runArgs(1, "w1")
	out4, cp4, best4, m4 := runArgs(4, "w4")

	if out1 != out4 {
		t.Errorf("stdout differs between -workers 1 and 4:\n%s\n---\n%s", out1, out4)
	}
	sameFile(t, cp1, cp4)
	sameFile(t, best1, best4)
	if a, b := artifact(t, m1), artifact(t, m4); !reflect.DeepEqual(a["search"], b["search"]) {
		t.Error("search metrics differ between -workers 1 and -workers 4")
	}

	m := artifact(t, m1)
	if got := field(t, m, "manifest", "tool"); got != "pssearch" {
		t.Errorf("manifest tool = %v", got)
	}
	if aspl := field(t, m, "search", "best_aspl").(float64); aspl <= 1 {
		t.Errorf("search best_aspl = %v, want > 1", aspl)
	}
	if bound := field(t, m, "search", "aspl_lower_bound").(float64); bound <= 1 {
		t.Errorf("search aspl_lower_bound = %v, want > 1", bound)
	}
	if gap := field(t, m, "search", "gap_pct").(float64); gap < 0 {
		t.Errorf("search gap_pct = %v, want >= 0", gap)
	}
	if traj := field(t, m, "search", "trajectory").([]any); len(traj) != 3 {
		t.Errorf("search trajectory has %d points, want 3", len(traj))
	}
	if drift, ok := m["search"].(map[string]any)["drift"].(float64); ok && drift != 0 {
		t.Errorf("search drift = %v, want 0", drift)
	}

	// Resume at the same epoch target: byte-stable checkpoint no-op.
	cp2 := filepath.Join(tmp, "cp-resumed.json")
	run(t, "pssearch", "-resume", cp1, "-epochs", "3", "-checkpoint", cp2)
	sameFile(t, cp1, cp2)

	// Resume to a higher target: the run continues for the two extra
	// epochs.
	m5 := filepath.Join(tmp, "m-resumed.json")
	run(t, "pssearch", "-resume", cp1, "-epochs", "5", "-checkpoint", filepath.Join(tmp, "cp-5.json"),
		"-metrics", m5, "-metrics-timing=false")
	if traj := field(t, artifact(t, m5), "search", "trajectory").([]any); len(traj) != 5 {
		t.Errorf("resumed to -epochs 5: trajectory has %d points, want 5", len(traj))
	}

	// Two searchers on one worker and on eight, where each searcher's
	// evaluation gets a 4-wide pool, write the same checkpoint.
	pooled := func(workers string) string {
		cp := filepath.Join(tmp, "cp-s2-w"+workers+".json")
		run(t, "pssearch", "-start", "jellyfish:64,4", "-seed", "3", "-epochs", "4", "-iters", "200",
			"-searchers", "2", "-workers", workers, "-checkpoint", cp)
		return cp
	}
	sameFile(t, pooled("1"), pooled("8"))

	// The best graph edge list: one edge per non-comment line, and the
	// degree sequence preserved means exactly 64·4/2 edges.
	data, err := os.ReadFile(best1)
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			edges++
		}
	}
	if edges != 128 {
		t.Errorf("best-out has %d edges, want 128 (64 vertices of degree 4)", edges)
	}
}

// sameFile fails the test unless the files at paths a and b are equal.
func sameFile(t *testing.T, a, b string) {
	t.Helper()
	x, errA := os.ReadFile(a)
	y, errB := os.ReadFile(b)
	if errA != nil || errB != nil || !bytes.Equal(x, y) {
		t.Errorf("%s and %s differ (read errors %v, %v)", a, b, errA, errB)
	}
}

func TestPsfigMetrics(t *testing.T) {
	tmp := t.TempDir()
	out := filepath.Join(tmp, "fig.json")
	run(t, "psfig", "-only", "fig7", "-out", tmp, "-metrics", out, "-metrics-timing=false")
	m := artifact(t, out)
	figs := field(t, m, "figures").([]any)
	if len(figs) != 1 {
		t.Fatalf("figures has %d entries, want 1", len(figs))
	}
	if got := field(t, figs[0].(map[string]any), "name"); got != "fig7" {
		t.Errorf("figure name = %v, want fig7", got)
	}
}

func TestPsfaultsMetrics(t *testing.T) {
	out := filepath.Join(t.TempDir(), "faults.json")
	stdout := run(t, "psfaults", "-spec", "ps-iq-small", "-trials", "3",
		"-metrics", out, "-metrics-timing=false")
	if !strings.Contains(stdout, "fail") && !strings.Contains(stdout, "frac") {
		t.Errorf("psfaults output missing sweep table:\n%s", stdout)
	}
	m := artifact(t, out)
	if d := field(t, m, "faults", "intact_diameter").(float64); d < 1 || d > 3 {
		t.Errorf("intact diameter %v, want in [1, 3]", d)
	}
	if trials := field(t, m, "faults", "trials").([]any); len(trials) != 3 {
		t.Errorf("faults.trials has %d entries, want 3", len(trials))
	}
	if _, ok := field(t, m, "faults", "median").(map[string]any); !ok {
		t.Error("faults.median missing")
	}
}

// TestPsfaultsUnknownMode pins the shared routing vocabulary at the CLI:
// psfaults -traffic rejects an unknown -mode with the message pssim
// prints for an unknown -routing (it used to simulate MIN silently), and
// both help texts list the sim mode table's names.
func TestPsfaultsUnknownMode(t *testing.T) {
	fail := func(bin string, args ...string) string {
		t.Helper()
		cmd := command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%s %s: err %v, want exit status 1\nstdout: %s", bin, strings.Join(args, " "), err, stdout.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s %s printed results before failing:\n%s", bin, strings.Join(args, " "), stdout.String())
		}
		return strings.TrimPrefix(stderr.String(), bin+": ")
	}
	got := fail("psfaults", "-spec", "ps-iq-small", "-traffic", "-mode", "nosuch")
	want := fail("pssim", "-spec", "ps-iq-small", "-routing", "nosuch")
	if got != want || !strings.Contains(got, `unknown routing "nosuch"`) {
		t.Errorf("psfaults -mode nosuch: %q, pssim -routing nosuch: %q; want one 'unknown routing' message", got, want)
	}
	const names = "min|ugal|ugal-g|mp-min|mp-ugal"
	for _, bin := range []string{"pssim", "psfaults"} {
		// -h exits 0 with the usage on stderr.
		cmd := command(bin, "-h")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s -h: %v", bin, err)
		}
		if !strings.Contains(stderr.String(), names) {
			t.Errorf("%s -h does not list the routing names %s", bin, names)
		}
	}
}

// TestFrontEndParity pins that the CLI and the daemon describe the same
// run: pssim's -routing/-cycles/-seed/-loads and psserve's
// routing/cycles/seed/load fields go through one routing table and one
// cycles shorthand, so the reported point is the same.
func TestFrontEndParity(t *testing.T) {
	out := run(t, "pssim", "-spec", "ps-iq-small", "-routing", "ugal", "-cycles", "200", "-seed", "3", "-loads", "0.3")
	var row []string
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[0] == "0.300" {
			row = f
		}
	}
	if row == nil {
		t.Fatalf("pssim output has no load-0.3 row:\n%s", out)
	}

	base, stop := startPsserve(t)
	defer stop()
	resp, err := http.Post(base+"/v1/eval", "application/json",
		strings.NewReader(`{"spec":"ps-iq-small","routing":"ugal","cycles":200,"seed":3,"load":0.3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Manifest struct{ Routing string }
		Result   struct {
			AvgLatency    float64 `json:"avg_latency"`
			Throughput    float64
			DeliveredFrac float64 `json:"delivered_frac"`
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("eval = %d, decode: %v", resp.StatusCode, err)
	}
	if body.Manifest.Routing != "ugal" {
		t.Errorf("manifest.routing = %q, want the wire name \"ugal\"", body.Manifest.Routing)
	}
	// pssim's sweep seeds load point 0 with -seed itself, so the two
	// front ends run the identical engine; compare at pssim's precision.
	r := body.Result
	got := []string{fmt.Sprintf("%.2f", r.AvgLatency), fmt.Sprintf("%.4f", r.Throughput), fmt.Sprintf("%.3f", r.DeliveredFrac)}
	if !reflect.DeepEqual(got, row[1:4]) {
		t.Errorf("psserve reports avg-lat/throughput/delivered %v, pssim %v", got, row[1:4])
	}
}

// TestPsserveSmoke is the end-to-end daemon check: start psserve on an
// ephemeral port, run an eval round trip over real HTTP, verify the
// warm replay is a byte-identical cache hit, then drain it with SIGTERM
// and require a clean exit.
func TestPsserveSmoke(t *testing.T) {
	base, stop := startPsserve(t)
	defer stop()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	eval := func() (string, []byte) {
		resp, err := http.Post(base+"/v1/eval", "application/json",
			strings.NewReader(`{"spec":"ps-iq-small","cycles":200,"seed":3}`))
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("eval = %d %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Cache"), body
	}
	cacheCold, cold := eval()
	cacheWarm, warm := eval()
	if cacheCold != "miss" || cacheWarm != "hit" {
		t.Fatalf("X-Cache cold/warm = %q/%q, want miss/hit", cacheCold, cacheWarm)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm replay differs from cold run:\n%s\n---\n%s", cold, warm)
	}

	resp, err = http.Get(base + "/v1/cache/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st map[string]any
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatalf("stats body %s: %v", stats, err)
	}
	serveStats, ok := st["serve"].(map[string]any)
	if !ok || serveStats["cache_hits"].(float64) != 1 || serveStats["builds"].(float64) != 1 {
		t.Fatalf("unexpected stats: %s", stats)
	}

	// Graceful drain: SIGTERM, clean exit 0, final report printed.
	if rest := stop(); !strings.Contains(rest, "drained") {
		t.Fatalf("missing drain report in output: %q", rest)
	}
}

// startPsserve launches the daemon on an ephemeral port and returns its
// base URL plus a stop function that drains it with SIGTERM, requires a
// clean exit and returns the rest of its stdout (safe to call twice).
func startPsserve(t *testing.T) (base string, stop func() string) {
	t.Helper()
	cmd := command("psserve", "-addr", "127.0.0.1:0", "-workers", "2", "-queue", "8",
		"-cache-mb", "16", "-run-timeout", "30s", "-drain-timeout", "10s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })

	// The first stdout line announces the resolved address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("psserve produced no output; stderr: %s", stderr.String())
	}
	line := sc.Text()
	const prefix = "psserve: listening on "
	if !strings.HasPrefix(line, prefix) {
		t.Fatalf("unexpected startup line %q", line)
	}
	// Drain the rest of stdout in the background so the final report
	// does not block the process on a full pipe.
	restc := make(chan string, 1)
	go func() {
		var rest strings.Builder
		for sc.Scan() {
			rest.WriteString(sc.Text())
			rest.WriteString("\n")
		}
		restc <- rest.String()
	}()
	var rest string
	var once sync.Once
	return "http://" + strings.TrimPrefix(line, prefix), func() string {
		once.Do(func() {
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			rest = <-restc
			if err := cmd.Wait(); err != nil {
				t.Fatalf("psserve did not exit cleanly: %v\nstderr: %s", err, stderr.String())
			}
		})
		return rest
	}
}

// TestPsfaultsResilience runs the live-fault comparison of the golden on
// four workers: the table must be the one pinned for one worker, and
// the artifact must describe the targeted, repaired, stalled sweep.
func TestPsfaultsResilience(t *testing.T) {
	t.Parallel()
	args := slices.Clone(resilienceSmoke)
	for i := range args {
		if args[i] == "-workers" {
			args[i+1] = "4"
		}
	}
	rec := runGolden(t, goldenCase{bin: "psfaults", args: args, stdout: true, stderr: true, excerpts: []string{"r.json:fault_resilience"}})
	table, excerpt, _ := strings.Cut(rec, "--- r.json:fault_resilience\n")
	golden, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if one := strings.Replace(table, "-workers 4", "-workers 1", 1); !strings.Contains(string(golden), one) {
		t.Errorf("-workers 4 output is not the golden's -workers 1 record:\n%s", one)
	}
	var fr map[string]any
	if err := json.Unmarshal([]byte(excerpt), &fr); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{"target_lanes": 2, "mtbf": 40, "repair": 150, "repair_delay": 60} {
		if fr[k] != want {
			t.Errorf("fault_resilience.%s = %v, want %v", k, fr[k], want)
		}
	}
}

// TestOutputFiles checks the flags that write a file next to the run:
// -cpuprofile and -memprofile (shared by the experiment tools) write
// non-empty profiles, and -svg writes an SVG chart.
func TestOutputFiles(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	run(t, "pssim", "-spec", "ps-iq-small", "-cycles", "60", "-loads", "0.1,0.2", "-seed", "3",
		"-cpuprofile", path("cpu.prof"), "-memprofile", path("mem.prof"), "-svg", path("sim.svg"))
	run(t, "psfaults", "-spec", "ps-iq-small", "-trials", "3", "-svg", path("faults.svg"))
	for _, name := range []string{"cpu.prof", "mem.prof", "sim.svg", "faults.svg"} {
		data, err := os.ReadFile(path(name))
		if err != nil || len(data) == 0 {
			t.Errorf("%s: %d bytes, %v", name, len(data), err)
		}
		if strings.HasSuffix(name, ".svg") && !bytes.Contains(data, []byte("<svg")) {
			t.Errorf("%s is not an SVG chart:\n%.200s", name, data)
		}
	}
}

func TestPsmotifsMetrics(t *testing.T) {
	out := filepath.Join(t.TempDir(), "motifs.json")
	run(t, "psmotifs", "-motif", "allreduce", "-specs", "ps-iq-small",
		"-ranks", "32", "-iters", "1", "-metrics", out, "-metrics-timing=false")
	m := artifact(t, out)
	flows := field(t, m, "flows").([]any)
	if len(flows) != 2 {
		t.Fatalf("flows has %d entries, want 2 (MIN and UGAL)", len(flows))
	}
	for _, f := range flows {
		fr := f.(map[string]any)
		if us, ok := fr["completion_us"].(float64); !ok || us <= 0 {
			t.Errorf("flow %v completion_us = %v, want > 0", fr["routing"], fr["completion_us"])
		}
		if msgs := field(t, fr, "messages").(float64); msgs <= 0 {
			t.Errorf("flow %v delivered %v messages", fr["routing"], msgs)
		}
	}
}
