package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"polarstar/internal/obs"
)

// shared is the one registration the default flag set allows.
var shared = Register("clitool")

// TestTaskRunsFunction checks that Task executes its function exactly
// once, with and without labels, including nested phases (pprof label
// sets compose across nested Do calls).
func TestTaskRunsFunction(t *testing.T) {
	calls := 0
	Task(func() { calls++ }, "phase", "sweep", "spec", "ps-iq-small")
	Task(func() { calls++ })
	Task(func() {
		Task(func() { calls++ }, "phase", "inner")
	}, "phase", "outer")
	if calls != 3 {
		t.Fatalf("fn ran %d times, want 3", calls)
	}
}

// TestProfileNoFlagsIsNoop: with neither -cpuprofile nor -memprofile
// set, Profile and its stop function do nothing and do not fail.
func TestProfileNoFlagsIsNoop(t *testing.T) {
	shared.Profile()()
}

// TestProfileWritesProfiles drives both profiling flags end to end: the
// profiles land in the named files and are non-empty.
func TestProfileWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	*shared.cpuProfile, *shared.memProfile = cpu, mem
	defer func() { *shared.cpuProfile, *shared.memProfile = "", "" }()
	stop := shared.Profile()
	x := 0
	Task(func() {
		for i := 0; i < 1e6; i++ {
			x += i * i
		}
	}, "phase", "test-burn")
	_ = x
	stop()
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
}

// TestMetricsArtifact pins the artifact's start and finish: off without
// -metrics, and with it a manifest that keeps the tool's fields, adds
// the tool name and records the explicitly set flags.
func TestMetricsArtifact(t *testing.T) {
	if run := shared.Run(obs.Manifest{Spec: "x"}); run != nil {
		t.Fatal("Run without -metrics returned an artifact")
	}
	shared.Finish(nil, "# wrote metrics ")

	path := filepath.Join(t.TempDir(), "m.json")
	for name, v := range map[string]string{"metrics": path, "metrics-timing": "false"} {
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
	}
	defer flag.Set("metrics", "")
	defer flag.Set("metrics-timing", "true")
	run := shared.Run(obs.Manifest{Spec: "ps-iq-small", Seed: 9, Workers: 2})
	if run == nil {
		t.Fatal("Run with -metrics returned nil")
	}
	shared.Finish(run, "")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Manifest obs.Manifest
		Timing   *obs.Timing
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	m := got.Manifest
	if m.Schema != obs.Schema || m.Tool != "clitool" || m.Spec != "ps-iq-small" || m.Seed != 9 || m.Workers != 2 || m.GOMAXPROCS < 1 || m.GoVersion == "" {
		t.Errorf("manifest %+v", m)
	}
	if m.Args["metrics"] != path || m.Args["metrics-timing"] != "false" {
		t.Errorf("manifest args %v lack the set flags", m.Args)
	}
	if got.Timing != nil {
		t.Error("timing block written with -metrics-timing=false")
	}
}

func TestSplitAndList(t *testing.T) {
	if got, want := Split(" a, b ,,c"), []string{"a", "b", "", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Split = %q, want %q", got, want)
	}
	if got, err := List("1, 2,3 ", strconv.Atoi); err != nil || !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("List = %v, %v", got, err)
	}
	for _, s := range []string{"1,x", "", "1,"} {
		if got, err := List(s, strconv.Atoi); err == nil {
			t.Errorf("List(%q) = %v, want an error", s, got)
		}
	}
}

// TestWriteFile pins that every failure of a result file surfaces: the
// writer's own error, a write the writer ignored (a full device) and a
// file that cannot be created.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.txt")
	if err := WriteFile(path, func(w io.Writer) error {
		fmt.Fprintln(w, "load latency")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(path); string(data) != "load latency\n" {
		t.Errorf("file holds %q", data)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); err != boom {
		t.Errorf("writer error: got %v", err)
	}
	if err := WriteFile(filepath.Join(dir, "missing", "x"), func(io.Writer) error { return nil }); err == nil {
		t.Error("create in a missing directory succeeded")
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := WriteFile("/dev/full", func(w io.Writer) error {
			fmt.Fprintln(w, "dropped")
			return nil
		}); err == nil {
			t.Error("a write to a full device counted as success")
		}
	}
}

// TestFatal runs Fatal in a child process: "<program>: err" on stderr
// and exit status 1.
func TestFatal(t *testing.T) {
	if os.Getenv("CLI_TEST_FATAL") == "1" {
		Fatal(errors.New("bad -loads: x"))
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFatal$")
	cmd.Env = append(os.Environ(), "CLI_TEST_FATAL=1")
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("err %v, want exit status 1", err)
	}
	if want := filepath.Base(os.Args[0]) + ": bad -loads: x\n"; string(exit.Stderr) != want {
		t.Errorf("stderr %q, want %q (stdout %q)", exit.Stderr, want, out)
	}
}
