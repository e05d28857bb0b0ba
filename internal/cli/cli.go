// Package cli is the command-line layer of the cmd/ps* tools: the
// profiling and run-metrics flags, the metrics artifact's start and
// finish, comma-separated list flags, checked result files and the
// error exit are each written here once.
package cli

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"polarstar/internal/obs"
)

// Flags is the surface shared by the experiment tools: CPU and heap
// profiles for `go tool pprof`, and the run-metrics artifact.
type Flags struct {
	tool       string
	cpuProfile *string
	memProfile *string
	Metrics    *string // -metrics: artifact path ("" = disabled)
	Interval   *int    // -metrics-interval: cycles per interval sample (0 = off)
	Timing     *bool   // -metrics-timing: include the volatile timing block
}

// Register registers -cpuprofile, -memprofile, -metrics,
// -metrics-interval and -metrics-timing on the default flag set; tool
// names the artifact's producer. Call before flag.Parse.
func Register(tool string) *Flags {
	return &Flags{
		tool:       tool,
		cpuProfile: flag.String("cpuprofile", "", "write a CPU profile to this file"),
		memProfile: flag.String("memprofile", "", "write a heap profile to this file on exit"),
		Metrics:    flag.String("metrics", "", "write a run-metrics artifact to this file (.json or .csv)"),
		Interval:   flag.Int("metrics-interval", 0, "record an interval metrics sample every N simulated cycles (0: off)"),
		Timing:     flag.Bool("metrics-timing", true, "include wall/CPU time in the metrics artifact (disable for byte-identical artifacts across runs)"),
	}
}

// Profile starts CPU profiling when -cpuprofile was given. Defer the
// returned stop: it ends the CPU profile and, when -memprofile was
// given, writes the end-of-run heap profile.
func (f *Flags) Profile() (stop func()) {
	var cpu *os.File
	if *f.cpuProfile != "" {
		var err error
		if cpu, err = os.Create(*f.cpuProfile); err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
		if *f.memProfile != "" {
			runtime.GC() // materialize the live heap before the snapshot
			if err := WriteFile(*f.memProfile, pprof.WriteHeapProfile); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}
}

// Task runs fn under pprof labels (alternating key, value pairs), so CPU
// samples taken inside it are attributable per experiment phase with
// `go tool pprof -tagfocus`. Label one phase — a figure, a sweep, a
// fault ladder — not individual packets: the label set is copied per
// call.
func Task(fn func(), labels ...string) {
	pprof.Do(context.Background(), pprof.Labels(labels...), func(context.Context) { fn() })
}

// Run starts the metrics artifact with the tool's manifest fields m; the
// tool name and the build and host fields are filled in here. It returns
// nil when -metrics was not given.
func (f *Flags) Run(m obs.Manifest) *obs.Run {
	if *f.Metrics == "" {
		return nil
	}
	run := obs.NewRun(f.tool)
	env := run.Manifest
	m.Schema, m.Tool, m.GOMAXPROCS, m.GoVersion, m.Revision = env.Schema, env.Tool, env.GOMAXPROCS, env.GoVersion, env.Revision
	run.Manifest = m
	return run
}

// Finish records every explicitly set flag in run's manifest, writes the
// artifact to the -metrics path and, unless announce is empty, prints
// announce followed by the path on stdout. A nil run is a no-op; a
// failed write is fatal.
func (f *Flags) Finish(run *obs.Run, announce string) {
	if run == nil {
		return
	}
	args := map[string]string{}
	flag.Visit(func(fl *flag.Flag) { args[fl.Name] = fl.Value.String() })
	if len(args) > 0 {
		run.Manifest.Args = args
	}
	if err := run.Write(*f.Metrics, *f.Timing); err != nil {
		Fatal(err)
	}
	if announce != "" {
		fmt.Println(announce + *f.Metrics)
	}
}

// Split splits a comma-separated flag value into its elements, each
// trimmed of surrounding space.
func Split(s string) []string {
	parts := strings.Split(s, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

// List parses every element of a comma-separated flag value with parse,
// stopping at the first error.
func List[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, p := range Split(s) {
		v, err := parse(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// WriteFile creates the file at path and writes it through write,
// buffered. It returns the first error of write, of the writes
// themselves (table writers that return no error included) and of
// closing the file, so a short write never counts as success.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = write(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Fatal prints "<program>: err" on stderr and exits with status 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", strings.TrimSuffix(filepath.Base(os.Args[0]), ".exe"), err)
	os.Exit(1)
}
