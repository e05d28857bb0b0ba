package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Schema identifies the artifact layout; bump on incompatible changes.
const Schema = "polarstar-metrics/1"

// Manifest records what produced an artifact: enough to re-run the
// experiment bit-identically (spec, seed, workers) and enough to place it
// (binary revision, Go version, GOMAXPROCS). Every field is deterministic
// for a fixed binary and command line.
type Manifest struct {
	Schema  string `json:"schema"`
	Tool    string `json:"tool"`
	Spec    string `json:"spec,omitempty"`
	Routing string `json:"routing,omitempty"`
	Pattern string `json:"pattern,omitempty"`
	// SpecHash is the FNV-1a hash of the constructed topology's adjacency
	// (%016x), set by layers that build graphs content-addressably (the
	// serving layer): provenance that two artifacts really simulated the
	// same wiring, not just the same spec name.
	SpecHash   string `json:"spec_hash,omitempty"`
	Seed       int64  `json:"seed"`
	Workers    int    `json:"workers"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// Workers-budget split of tools that divide Workers between
	// task-level goroutines and intra-evaluation pools (pssearch):
	// SearcherWorkers·IntraWorkers ≤ Workers. Zero for tools without a
	// split. Like Workers these are manifest-only — metric sections stay
	// bit-identical across budgets.
	SearcherWorkers int               `json:"searcher_workers,omitempty"`
	IntraWorkers    int               `json:"intra_workers,omitempty"`
	GoVersion       string            `json:"go_version"`
	Revision        string            `json:"revision"`
	Args            map[string]string `json:"args,omitempty"`

	// FaultPlan records the live fault-injection configuration of the
	// run — the canonical plan hash plus every generator and retry
	// parameter — so a degraded run is reproducible from its artifact
	// alone. Nil (and absent from the JSON) for healthy runs.
	FaultPlan *FaultPlan `json:"fault_plan,omitempty"`
}

// FaultPlan is the manifest block describing a live fault-injection run.
type FaultPlan struct {
	Hash   string  `json:"hash"`             // FNV-1a of the canonical plan text, %016x
	Events int     `json:"events"`           // scripted events in the merged plan
	Source string  `json:"source,omitempty"` // plan file path, when one was given
	MTBF   float64 `json:"mtbf,omitempty"`   // mean cycles between generated failures (0: none)
	Repair int64   `json:"repair,omitempty"` // generated-failure repair delay in cycles (0: permanent)
	// RepairDelay is the single-table reconvergence stall charged after
	// every applied fault event (sim.Params.RepairDelay); 0 means
	// repair was instantaneous.
	RepairDelay int64 `json:"repair_delay,omitempty"`
	MaxRetries  int   `json:"max_retries"`
	BackoffBase int64 `json:"backoff_base"`
	BackoffCap  int64 `json:"backoff_cap"`
	MaxAge      int64 `json:"max_age"`
}

// Timing is the volatile block of an artifact: wall and CPU time differ
// between otherwise identical runs, so Run.Write can exclude it to keep
// artifacts byte-identical (the determinism contract the tests pin).
type Timing struct {
	WallMS int64 `json:"wall_ms"`
	CPUMS  int64 `json:"cpu_ms"`
}

// Run is one experiment artifact: the manifest, the typed metric
// sections the instrumented layers filled, and the timing block.
type Run struct {
	Manifest Manifest `json:"manifest"`

	Sim             *SimSweep        `json:"sim,omitempty"`
	Faults          *FaultSweep      `json:"faults,omitempty"`
	FaultTraffic    *FaultTraffic    `json:"fault_traffic,omitempty"`
	FaultResilience *FaultResilience `json:"fault_resilience,omitempty"`
	Flows           []*FlowRun       `json:"flows,omitempty"`
	Figures         []*Figure        `json:"figures,omitempty"`
	Search          *SearchRun       `json:"search,omitempty"`

	Timing *Timing `json:"timing,omitempty"`

	start    time.Time
	startCPU time.Duration
}

// NewRun starts an artifact for the named tool, capturing the
// environment manifest and the timing baseline.
func NewRun(tool string) *Run {
	r := &Run{
		Manifest: Manifest{
			Schema:     Schema,
			Tool:       tool,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			Revision:   buildRevision(),
		},
		start:    time.Now(),
		startCPU: processCPUTime(),
	}
	return r
}

// Finish stamps the timing block from the run's start baselines.
func (r *Run) Finish() {
	r.Timing = &Timing{
		WallMS: time.Since(r.start).Milliseconds(),
		CPUMS:  (processCPUTime() - r.startCPU).Milliseconds(),
	}
}

// Marshal renders the artifact as indented JSON. When includeTiming is
// false the volatile timing block is dropped, making the output a pure
// function of (binary, command line, seed) — the byte-identical form the
// determinism tests compare.
func (r *Run) Marshal(includeTiming bool) ([]byte, error) {
	if !includeTiming {
		clone := *r
		clone.Timing = nil
		r = &clone
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Write finishes the run and writes it to path: CSV when the path ends
// in ".csv", indented JSON otherwise.
func (r *Run) Write(path string, includeTiming bool) error {
	if includeTiming {
		r.Finish()
	}
	var data []byte
	var err error
	if strings.HasSuffix(path, ".csv") {
		data, err = r.MarshalCSV(includeTiming)
	} else {
		data, err = r.Marshal(includeTiming)
	}
	if err != nil {
		return fmt.Errorf("obs: marshal %s: %w", filepath.Base(path), err)
	}
	return os.WriteFile(path, data, 0o644)
}

// buildRevision returns the VCS revision baked into the binary, or
// "unknown" for builds without VCS stamping (go test, go run).
func buildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// marshalJSON is encoding/json without HTML escaping or the trailing
// newline — the helper the custom marshalers share.
func marshalJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// MarshalCSV flattens the artifact into deterministic "path,value" rows:
// the JSON tree walked depth-first with object keys sorted and array
// indices as path segments. One artifact format, two serializations.
func (r *Run) MarshalCSV(includeTiming bool) ([]byte, error) {
	js, err := r.Marshal(includeTiming)
	if err != nil {
		return nil, err
	}
	var tree any
	if err := json.Unmarshal(js, &tree); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString("path,value\n")
	flattenCSV(&buf, "", tree)
	return buf.Bytes(), nil
}

func flattenCSV(buf *bytes.Buffer, path string, v any) {
	join := func(seg string) string {
		if path == "" {
			return seg
		}
		return path + "." + seg
	}
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			flattenCSV(buf, join(k), t[k])
		}
	case []any:
		for i, e := range t {
			flattenCSV(buf, join(fmt.Sprintf("%d", i)), e)
		}
	default:
		val, _ := json.Marshal(v)
		s := string(val)
		if strings.ContainsAny(s, ",\n") {
			s = `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		fmt.Fprintf(buf, "%s,%s\n", path, s)
	}
}
