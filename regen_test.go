package polarstar_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// regenSteps are the updaters TestRegen runs, in order. Each golden test
// rewrites its file instead of comparing when POLARSTAR_REGEN=1 is set.
// psfig runs before clitest because clitest's psfig case compares what it
// writes with results/.
var regenSteps = [][]string{
	{"test", "-count=1", "-run", "^TestEngineGolden$", "./internal/sim/"},
	{"run", "./cmd/psfig", "-out", "results"},
	{"test", "-count=1", "-run", "^TestCLIGolden$", "./cmd/clitest/"},
	{"test", "-count=1", "-run", "^TestFigureGoldens$", "./internal/moore/"},
	{"test", "-count=1", "-run", "^TestEDSTDigest$", "./internal/route/"},
}

// regenGlobs match every file the steps write. Nothing under bench/ or
// results/perf/ is among them.
var regenGlobs = []string{
	"internal/sim/testdata/*",
	"results/*.txt", "results/*.svg",
	"cmd/clitest/testdata/*",
	"internal/moore/testdata/*",
	"internal/route/testdata/*",
}

// TestRegen is the one regeneration entry point for every simulated and
// figure output the tests pin:
//
//	POLARSTAR_REGEN=1 go test -count=1 -v -run '^TestRegen$' .
//
// It runs regenSteps in order, then logs (-v shows it) the files that
// changed, a summary of every moved fig09/fig10 curve, and whether the
// bench digests still equal those in bench/reference.json and the last
// results/perf/history.jsonl record. It writes neither: they are
// re-recorded with a benchmark run.
func TestRegen(t *testing.T) {
	if os.Getenv("POLARSTAR_REGEN") != "1" {
		t.Skip("set POLARSTAR_REGEN=1 to rewrite every golden and results/")
	}
	before := snapshot(t)
	// psfig writes the whole figure set, so a figure it no longer
	// produces shows up as removed instead of staying behind stale.
	for name := range before {
		if strings.HasPrefix(name, "results/") {
			if err := os.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, args := range regenSteps {
		cmd := exec.Command("go", args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	after := snapshot(t)

	touched := 0
	for _, name := range sortedKeys(before, after) {
		old, had := before[name]
		now, has := after[name]
		switch {
		case !had:
			t.Logf("new      %s", name)
		case !has:
			t.Logf("removed  %s", name)
		case !bytes.Equal(old, now):
			t.Logf("changed  %s", name)
		default:
			continue
		}
		touched++
	}
	t.Logf("%d files touched", touched)

	curves, moved := 0, 0
	for _, name := range sortedKeys(before, after) {
		base := filepath.Base(name)
		if !strings.HasPrefix(base, "fig09") && !strings.HasPrefix(base, "fig10") || !strings.HasSuffix(base, ".txt") {
			continue
		}
		old, now := parseCurves(before[name]), parseCurves(after[name])
		for _, key := range sortedKeys(old, now) {
			curves++
			if o, n := old[key], now[key]; o != n {
				moved++
				t.Logf("%s %s: saturates %s → %s, peak throughput %s → %s, latency at lowest load %s → %s",
					base, key, o.sat, n.sat, o.peak, n.peak, o.lowLat, n.lowLat)
			}
		}
	}
	t.Logf("%d of %d fig09/fig10 curves moved", moved, curves)

	logBenchDrift(t)
}

// snapshot reads every file regenGlobs match.
func snapshot(t *testing.T) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for _, glob := range regenGlobs {
		names, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			files[name] = data
		}
	}
	return files
}

// sortedKeys returns the union of the maps' keys in order.
func sortedKeys[V any](a, b map[string]V) []string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// curve is the summary of one latency-load table of a psfig sweep file:
// the lowest saturated load ("none" if no load saturates), the peak
// throughput and the latency at the lowest load, as printed.
type curve struct{ sat, peak, lowLat string }

// parseCurves summarises each "# spec routing pattern" block of a
// sim.WriteSweep table (columns load, avg-lat, throughput, delivered,
// saturated), keyed by that heading.
func parseCurves(data []byte) map[string]curve {
	curves := map[string]curve{}
	var key string
	var c curve
	peak := -1.0
	flush := func() {
		if key != "" {
			curves[key] = c
		}
	}
	for sc := bufio.NewScanner(bytes.NewReader(data)); sc.Scan(); {
		line := sc.Text()
		if head, ok := strings.CutPrefix(line, "# "); ok {
			flush()
			key, c, peak = head, curve{sat: "none"}, -1
			continue
		}
		f := strings.Fields(line)
		if key == "" || len(f) != 5 || f[0] == "load" {
			continue
		}
		if c.lowLat == "" {
			c.lowLat = f[1]
		}
		if thr, err := strconv.ParseFloat(f[2], 64); err == nil && thr > peak {
			peak, c.peak = thr, f[2]
		}
		if f[4] == "true" && c.sat == "none" {
			c.sat = f[0]
		}
	}
	flush()
	return curves
}

// logBenchDrift runs one pass of each workload that bench/reference.json
// holds a digest for, at the reference seed, and logs whether its digest
// still equals the reference's and the last ledger record's.
func logBenchDrift(t *testing.T) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bench")
	if out, err := exec.Command("go", "build", "-o", bin, "./bench").CombinedOutput(); err != nil {
		t.Fatalf("go build ./bench: %v\n%s", err, out)
	}
	data, err := os.ReadFile("bench/reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		Seed      int64 `json:"seed"`
		Workloads map[string]struct {
			Digest string `json:"digest"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	recs := readLedger(t)
	last := recs[len(recs)-1]
	for _, w := range ledgerWorkloads {
		if ref.Workloads[w].Digest == "" {
			continue
		}
		out, err := exec.Command(bin, "--workload", w, "--seed", fmt.Sprint(ref.Seed), "--seconds", "0.01", "--full").Output()
		if err != nil {
			t.Fatalf("bench --workload %s: %v", w, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res struct {
			Digest string `json:"digest"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("bench --workload %s: %v", w, err)
		}
		var ledger string
		for _, r := range last.Bench.Runs {
			if r.Workload == w && !r.Traced {
				ledger = r.Digest
			}
		}
		if res.Digest == ref.Workloads[w].Digest && res.Digest == ledger {
			t.Logf("bench %s digest %.8s unchanged", w, res.Digest)
		} else {
			t.Logf("bench %s digest drifted: now %.8s, bench/reference.json %.8s, ledger pr %d %.8s",
				w, res.Digest, ref.Workloads[w].Digest, last.PR, ledger)
		}
	}
}
