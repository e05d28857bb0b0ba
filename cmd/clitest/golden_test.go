package clitest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const goldenFile = "testdata/golden.txt"

// goldenCase is one pinned invocation. stdout and stderr say which
// streams the golden records; a stream left out is volatile (wall times)
// or empty by construction. tmp in an argument is replaced by a fresh
// directory, whose path reads "$TMP" in the golden. files names output
// files, under that directory, whose contents the golden records as text
// with the manifest's build-dependent fields blanked. excerpts names
// values inside a JSON output file, as "file:dotted.path", that the
// golden records instead of the whole file, one compact line per element
// of an array. results requires every file the run wrote to equal the
// file of that name in results/.
type goldenCase struct {
	bin            string
	args           []string
	stdout, stderr bool
	files          []string
	excerpts       []string
	results        bool
}

const resultsDir = "../../results"

const tmp = "$TMP"

var goldenCases = func() []goldenCase {
	var cs []goldenCase
	// Each binary's flag listing: names, defaults and usage text.
	for _, b := range binaries {
		cs = append(cs, goldenCase{bin: b, args: []string{"-help"}, stderr: true})
	}
	return append(cs,
		goldenCase{bin: "psgen", args: []string{"-topo", "polarstar", "-q", "5", "-dprime", "3", "-kind", "iq", "-stats"}, stdout: true},
		goldenCase{bin: "psroute", args: []string{"-spec", "ps-iq-small", "-src", "0", "-dst", "5", "-valiant", "-disjoint"}, stdout: true},
		goldenCase{bin: "psroute", args: []string{"-spec", "ps-iq-small", "-storage"}, stdout: true},
		goldenCase{bin: "psscale", args: []string{"-fig", "1"}, stdout: true},
		goldenCase{bin: "psscale", args: []string{"-headline"}, stdout: true},
		goldenCase{bin: "psbisect", args: []string{"-lo", "8", "-hi", "8"}, stdout: true},
		goldenCase{bin: "pssim", args: []string{"-spec", "ps-iq-small", "-cycles", "60", "-loads", "0.1,0.3", "-seed", "3"}, stdout: true, stderr: true},
		goldenCase{bin: "psfaults", args: []string{"-spec", "ps-iq-small", "-trials", "3", "-seed", "7"}, stdout: true, stderr: true},
		goldenCase{bin: "psmotifs", args: []string{"-motif", "allreduce", "-specs", "ps-iq-small", "-ranks", "32", "-iters", "1"}, stdout: true, stderr: true},
		goldenCase{bin: "pssearch", args: []string{"-start", "jellyfish:64,4", "-seed", "5", "-searchers", "2", "-epochs", "2", "-iters", "100"}, stdout: true},

		// Rejected input: the message on stderr, exit 1.
		goldenCase{bin: "pssim", args: []string{"-spec", "ps-iq-small", "-routing", "nosuch"}, stdout: true, stderr: true},
		goldenCase{bin: "pssim", args: []string{"-spec", "ps-iq-small", "-loads", "0.2,x"}, stdout: true, stderr: true},
		goldenCase{bin: "psfaults", args: []string{"-spec", "ps-iq-small", "-resilience", "-counts", "x"}, stdout: true, stderr: true},
		goldenCase{bin: "pssim", args: []string{"-spec", "ps-iq-small", "-cycles", "60", "-loads", "NaN"}, stdout: true, stderr: true},
		goldenCase{bin: "psfaults", args: []string{"-spec", "ps-iq-small", "-traffic", "-load", "NaN"}, stdout: true, stderr: true},
		goldenCase{bin: "psmotifs", args: []string{"-specs", "ps-iq-small", "-ranks", "0"}, stdout: true, stderr: true},
		goldenCase{bin: "psmotifs", args: []string{"-specs", "ps-iq-small", "-msgkb", "NaN"}, stdout: true, stderr: true},

		// Result files and metrics artifacts.
		goldenCase{bin: "psfig", args: []string{"-only", "fig1,fig4,fig7,headline,fig11,fig12,fig13,fig14", "-out", tmp}, results: true},
		goldenCase{bin: "pssim", args: []string{"-spec", "ps-iq-small", "-cycles", "60", "-loads", "0.2", "-seed", "7",
			"-metrics", tmp + "/m.json", "-metrics-timing=false"}, stdout: true, stderr: true, files: []string{"m.json"}},
		goldenCase{bin: "psfaults", args: []string{"-spec", "ps-iq-small", "-trials", "3",
			"-metrics", tmp + "/m.json", "-metrics-timing=false"}, stdout: true, stderr: true, files: []string{"m.json"}},
		goldenCase{bin: "pssearch", args: []string{"-start", "jellyfish:64,4", "-seed", "5", "-searchers", "2", "-epochs", "2", "-iters", "100",
			"-metrics", tmp + "/m.json", "-metrics-timing=false"}, stdout: true, files: []string{"m.json"}},

		// The rest of each tool's flags, so every flag has a reader
		// (unreadFlags). Each psgen family, psscale and psbisect case
		// runs in well under a second.
		goldenCase{bin: "psgen", args: []string{"-topo", "dragonfly", "-a", "4", "-h", "2", "-stats"}, stdout: true},
		goldenCase{bin: "psgen", args: []string{"-topo", "megafly", "-rho", "2", "-a", "4", "-stats"}, stdout: true},
		goldenCase{bin: "psgen", args: []string{"-topo", "hyperx", "-dims", "3x3x2", "-stats"}, stdout: true},
		goldenCase{bin: "psgen", args: []string{"-topo", "jellyfish", "-n", "16", "-p", "3", "-seed", "2", "-stats"}, stdout: true},
		goldenCase{bin: "psgen", args: []string{"-topo", "polarstar", "-kind", "iq", "-dprime", "3", "-sweep", "3-5"}, stdout: true},
		goldenCase{bin: "psgen", args: []string{"-topo", "er", "-q", "2", "-dot", "-o", tmp + "/er.dot"}, stdout: true, files: []string{"er.dot"}},
		goldenCase{bin: "psroute", args: []string{"-spec", "ps-iq-small", "-src", "0", "-dst", "5", "-valiant", "-seed", "2"}, stdout: true},
		goldenCase{bin: "psscale", args: []string{"-fig", "1", "-sf", "-lo", "14", "-hi", "14"}, stdout: true},
		goldenCase{bin: "psscale", args: []string{"-fig", "7", "-measure", "-lo", "8", "-hi", "9", "-maxorder", "200"}, stdout: true},
		goldenCase{bin: "psscale", args: []string{"-table", "1"}, stdout: true},
		goldenCase{bin: "psbisect", args: []string{"-spec", "ps-iq-small", "-seed", "2"}, stdout: true},
		goldenCase{bin: "psbisect", args: []string{"-fig", "13", "-lo", "8", "-hi", "10", "-maxn", "200"}, stdout: true},
		goldenCase{bin: "psmotifs", args: []string{"-motif", "sweep3d", "-specs", "ps-iq-small", "-ranks", "16", "-iters", "1", "-compute", "50", "-seed", "2"}, stdout: true, stderr: true},
		goldenCase{bin: "psfig", args: []string{"-full", "-only", "fig1,fig7", "-seed", "2", "-workers", "1", "-out", tmp,
			"-metrics", tmp + "/m.json", "-metrics-timing=false"}, excerpts: []string{"m.json:manifest.args", "m.json:figures"}},
		goldenCase{bin: "pssim", args: []string{"-spec", "ps-iq-small", "-routing", "mp-min", "-lanes", "2", "-pattern", "permutation",
			"-cycles", "60", "-loads", "0.2", "-seed", "3"}, stdout: true, stderr: true},
		goldenCase{bin: "pssim", args: []string{"-spec", "ps-iq-small", "-cycles", "60", "-loads", "0.2", "-seed", "7", "-metrics-interval", "20",
			"-metrics", tmp + "/m.json", "-metrics-timing=false"}, stdout: true, stderr: true, excerpts: []string{"m.json:sim.points.0.series"}},
		goldenCase{bin: "pssim", args: []string{"-spec", "ps-iq-small", "-cycles", "60", "-loads", "0.2", "-seed", "3",
			"-fault-plan", "testdata/plan.txt", "-mtbf", "50", "-fault-repair", "30", "-retries", "2", "-retry-backoff", "4", "-repair-delay", "10",
			"-metrics", tmp + "/m.json", "-metrics-timing=false"}, stdout: true, stderr: true,
			excerpts: []string{"m.json:manifest.fault_plan", "m.json:sim.points.0.faults"}},
		goldenCase{bin: "psfaults", args: []string{"-spec", "hx-small", "-traffic", "-load", "0.05", "-pattern", "permutation",
			"-mtbf", "3000", "-repair-delay", "60", "-workers", "1", "-metrics", tmp + "/m.json", "-metrics-timing=false"},
			stdout: true, stderr: true, excerpts: []string{"m.json:manifest.fault_plan"}},
		goldenCase{bin: "psfaults", args: []string{"-spec", "hx-small", "-resilience", "-counts", "0,1", "-rmodes", "mp-min", "-lanes", "2",
			"-load", "0.05", "-seed", "2", "-workers", "1"}, stdout: true, stderr: true},
		goldenCase{bin: "psfaults", args: resilienceSmoke, stdout: true, stderr: true},
		goldenCase{bin: "pssim", args: []string{"-spec", "ps-iq-small", "-cycles", "60", "-loads", "0.2", "-repair-delay", "60"}, stdout: true, stderr: true},
		goldenCase{bin: "psfaults", args: []string{"-spec", "ps-iq-small", "-resilience", "-counts", "0", "-rmodes", "min",
			"-mtbf", "50", "-fault-plan", "/nonexistent"}, stdout: true, stderr: true},
	)
}()

// resilienceSmoke is psfaults' live-fault comparison end to end on one
// worker: targeted lane kills, an MTBF/MTTR schedule and a repair stall,
// with the fault_resilience artifact (TestPsfaultsResilience runs it on
// four workers).
var resilienceSmoke = []string{"-spec", "ps-iq-small", "-resilience", "-load", "0.2", "-counts", "0,2",
	"-rmodes", "min,mp-min", "-target-lanes", "2", "-resilience-mtbf", "40", "-resilience-repair", "150",
	"-repair-delay", "60", "-seed", "5", "-workers", "1", "-metrics", tmp + "/r.json", "-metrics-timing=false"}

// manifestVolatile matches the manifest fields that depend on the build
// and the host rather than on the command line.
var manifestVolatile = regexp.MustCompile(`("(?:revision|go_version)": )"[^"]*"|("gomaxprocs": )\d+`)

// runGolden executes one case and renders its record.
func runGolden(t *testing.T, c goldenCase) string {
	t.Helper()
	dir := t.TempDir()
	args := make([]string, len(c.args))
	for i, a := range c.args {
		args[i] = strings.ReplaceAll(a, tmp, dir)
	}
	cmd := command(c.bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("%s: %v", c.bin, err)
		}
		code = exit.ExitCode()
	}
	clean := func(s string) string {
		s = strings.ReplaceAll(s, dir, tmp)
		return strings.ReplaceAll(s, binDir+string(filepath.Separator), "")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s %s\nexit %d\n", c.bin, strings.Join(c.args, " "), code)
	if c.stdout {
		fmt.Fprintf(&b, "--- stdout\n%s", clean(stdout.String()))
	}
	if c.stderr {
		fmt.Fprintf(&b, "--- stderr\n%s", clean(stderr.String()))
	}
	if c.results {
		compareResults(t, dir)
	}
	for _, name := range c.files {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", c.bin, err)
		}
		fmt.Fprintf(&b, "--- %s\n%s", name, clean(manifestVolatile.ReplaceAllString(string(data), `$1$2""`)))
	}
	for _, x := range c.excerpts {
		name, path, _ := strings.Cut(x, ":")
		v := field(t, artifact(t, filepath.Join(dir, name)), strings.Split(path, ".")...)
		rows, ok := v.([]any)
		if !ok {
			rows = []any{v}
		}
		fmt.Fprintf(&b, "--- %s\n", x)
		for _, r := range rows {
			line, _ := json.Marshal(r)
			fmt.Fprintf(&b, "%s\n", clean(string(line)))
		}
	}
	return b.String()
}

// compareResults fails the test unless every file in dir equals the file
// of that name in results/, so the committed figures are what the tools
// produce.
func compareResults(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Errorf("%s wrote no files", dir)
	}
	for _, e := range entries {
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(resultsDir, e.Name()))
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("results/%s is not what psfig writes now (regenerate with POLARSTAR_REGEN=1 go test -count=1 -run '^TestRegen$' .):\n%s",
				e.Name(), firstDiff(string(want), string(got)))
		}
	}
}

// TestCLIGolden pins the command-line surface of every tool: flag
// listings, the stdout of short seeded runs, the messages of rejected
// input, the metrics artifacts, and — against results/ — the bytes of
// the fast figures. POLARSTAR_REGEN=1 rewrites testdata/golden.txt
// instead (TestRegen in the repository root runs every such rewrite,
// results/ first).
func TestCLIGolden(t *testing.T) {
	t.Parallel()
	var got strings.Builder
	for _, c := range goldenCases {
		got.WriteString(runGolden(t, c))
	}
	if os.Getenv("POLARSTAR_REGEN") == "1" {
		if err := os.WriteFile(goldenFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (record it with POLARSTAR_REGEN=1)", err)
	}
	if got.String() != string(want) {
		t.Errorf("CLI output differs from %s (POLARSTAR_REGEN=1 rewrites it):\n%s", goldenFile, firstDiff(string(want), got.String()))
	}
}

// firstDiff names the first line at which got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(end of output)"
	}
	return fmt.Sprintf("first difference at line %d:\nwant: %s\ngot:  %s", i+1, line(w), line(g))
}
