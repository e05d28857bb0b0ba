package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
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
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes one built binary and returns its stdout, failing the test
// on a non-zero exit or empty output.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, bin), args...)
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

func field(t *testing.T, m map[string]any, path ...string) any {
	t.Helper()
	var cur any = m
	for _, k := range path {
		obj, ok := cur.(map[string]any)
		if !ok || obj[k] == nil {
			t.Fatalf("artifact missing field %s", strings.Join(path, "."))
		}
		cur = obj[k]
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
// and resuming the checkpoint at the same epoch target must be a
// byte-stable no-op.
func TestPssearchMetrics(t *testing.T) {
	tmp := t.TempDir()
	runArgs := func(workers int, tag string) (stdout, cp, best, metrics string) {
		cp = filepath.Join(tmp, "cp-"+tag+".json")
		best = filepath.Join(tmp, "best-"+tag+".txt")
		metrics = filepath.Join(tmp, "m-"+tag+".json")
		stdout = run(t, "pssearch", "-start", "jellyfish:64,4", "-seed", "5",
			"-searchers", "3", "-epochs", "3", "-iters", "150",
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
	for _, pair := range [][2]string{{cp1, cp4}, {best1, best4}} {
		a, _ := os.ReadFile(pair[0])
		b, _ := os.ReadFile(pair[1])
		if !bytes.Equal(a, b) {
			t.Errorf("%s and %s differ between worker counts", pair[0], pair[1])
		}
	}
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
	a, _ := os.ReadFile(cp1)
	b, _ := os.ReadFile(cp2)
	if !bytes.Equal(a, b) {
		t.Error("resume at the same epoch target rewrote a different checkpoint")
	}

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
		cmd := exec.Command(filepath.Join(binDir, bin), args...)
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
		cmd := exec.Command(filepath.Join(binDir, bin), "-h")
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
	cmd := exec.Command(filepath.Join(binDir, "psserve"),
		"-addr", "127.0.0.1:0", "-workers", "2", "-run-timeout", "30s")
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
