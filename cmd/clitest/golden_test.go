package clitest

import (
	"bytes"
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
// with the manifest's build-dependent fields blanked. results requires
// every file the run wrote to equal the file of that name in results/.
type goldenCase struct {
	bin            string
	args           []string
	stdout, stderr bool
	files          []string
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
	)
}()

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
	cmd := exec.Command(filepath.Join(binDir, c.bin), args...)
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
