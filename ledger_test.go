package polarstar_test

// The perf ledger: results/perf/history.jsonl holds one `go run ./bench
// -seed 1 -out FILE` result per measured revision, the last line being
// the accepted baseline. TestLedgerHistory checks the shape of every
// record. TestLedgerRun gates a fresh bench run against the baseline when
// POLARSTAR_LEDGER_RUN names the fresh -out file (the CI perf-ledger
// step): the simulated and structural outputs and the fixed-seed counts
// must be unchanged, and no workload's untraced peak RSS may grow past
// rssTolerance on a host with the record's CPU count, so a change that
// moves one on purpose appends its own record in the same commit.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

const ledgerFile = "results/perf/history.jsonl"

var ledgerWorkloads = []string{"fig_sweep", "fault_resilience", "graph_search", "serve_mix"}

// allocTolerance bounds the relative drift of sim.alloc_bytes_per_packet,
// a per-packet mean of the Go allocator's byte counter: it moved within
// 0.1 % between runs of one revision across the ledger, and by more than
// 5 % whenever the engine's allocations changed.
const allocTolerance = 0.01

// rssTolerance bounds how far an untraced run's peak_rss_mb (the
// process's VmHWM) may rise above the last record's. Five -seconds 3 runs
// of one revision on a 2-CPU host (nproc 2, as the record's) spread by at
// most 3.5 % per workload untraced and rose at most 0.6 % above its 30 s
// record; traced runs, which also hold the spans, spread by up to 12 % and
// are not gated. Some phases run min(nproc, 4) workers, each with its own
// engine or scratch, so the gate applies only when the fresh run's nproc
// equals the record's; on any other host it logs the comparison.
const rssTolerance = 0.20

type ledgerRun struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Nproc    int                `json:"nproc"`
	Failed   int64              `json:"failed"`
	Digest   string             `json:"digest"`
	Metrics  map[string]float64 `json:"metrics"`
}

type ledgerRecord struct {
	Revision string `json:"revision"`
	PR       int    `json:"pr"`
	Command  string `json:"command"`
	Bench    struct {
		Runs []ledgerRun `json:"runs"`
	} `json:"bench"`
}

func readLedger(t *testing.T) []ledgerRecord {
	t.Helper()
	f, err := os.Open(ledgerFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []ledgerRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rec ledgerRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s line %d: %v", ledgerFile, line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatalf("%s holds no record", ledgerFile)
	}
	return recs
}

// pairRuns indexes a bench run set by workload as [untraced, traced],
// failing unless it is exactly one of each for the four workloads, and
// the traced run's outputs equal the untraced run's.
func pairRuns(t *testing.T, what string, runs []ledgerRun) map[string][2]ledgerRun {
	t.Helper()
	pairs := map[string][2]ledgerRun{}
	seen := map[string]int{}
	for _, r := range runs {
		i := 0
		if r.Traced {
			i = 1
		}
		p := pairs[r.Workload]
		p[i] = r
		pairs[r.Workload] = p
		seen[fmt.Sprint(r.Workload, r.Traced)]++
	}
	if len(runs) != 2*len(ledgerWorkloads) {
		t.Errorf("%s: %d runs, want %d", what, len(runs), 2*len(ledgerWorkloads))
	}
	for _, w := range ledgerWorkloads {
		if seen[fmt.Sprint(w, false)] != 1 || seen[fmt.Sprint(w, true)] != 1 {
			t.Errorf("%s: %s needs one untraced and one traced run", what, w)
			continue
		}
		if p := pairs[w]; p[0].Digest != p[1].Digest {
			t.Errorf("%s: %s traced digest %.16s differs from untraced %.16s", what, w, p[1].Digest, p[0].Digest)
		}
	}
	return pairs
}

func TestLedgerHistory(t *testing.T) {
	for i, rec := range readLedger(t) {
		what := fmt.Sprintf("%s line %d", ledgerFile, i+1)
		if rec.Revision == "" || rec.PR <= 0 || rec.Command == "" {
			t.Errorf("%s: revision %q, pr %d, command %q: all three are required", what, rec.Revision, rec.PR, rec.Command)
		}
		pairRuns(t, what, rec.Bench.Runs)
	}
}

// ledgerCounts returns the metrics BENCHMARK.json declares as counts,
// except bench.passes. Each count is the median over identical passes of
// fixed-seed work, so it does not depend on --seconds: a -seconds 3 run
// and a -seconds 30 run of one revision agree on every one of them.
func ledgerCounts(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range decl.PerLayer {
		if m.Unit == "count" && m.Name != "bench.passes" {
			names = append(names, m.Name)
		}
	}
	return names
}

func TestLedgerRun(t *testing.T) {
	path := os.Getenv("POLARSTAR_LEDGER_RUN")
	if path == "" {
		t.Skip("POLARSTAR_LEDGER_RUN names no `go run ./bench -out` file to gate")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fresh ledgerRecord
	if err := json.Unmarshal(data, &fresh.Bench); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	hist := readLedger(t)
	base := pairRuns(t, ledgerFile+" last record", hist[len(hist)-1].Bench.Runs)
	got := pairRuns(t, path, fresh.Bench.Runs)
	counts := ledgerCounts(t)
	for _, w := range ledgerWorkloads {
		for i, g := range got[w] {
			b := base[w][i]
			name := fmt.Sprintf("%s (traced %v)", w, g.Traced)
			if g.Seed != b.Seed || g.Digest != b.Digest || g.Failed != b.Failed {
				t.Errorf("%s: seed %d, digest %.16s, failed %d; the ledger has %d, %.16s, %d",
					name, g.Seed, g.Digest, g.Failed, b.Seed, b.Digest, b.Failed)
			}
			for _, m := range counts {
				gv, gok := g.Metrics[m]
				bv, bok := b.Metrics[m]
				if gok != bok || gv != bv {
					t.Errorf("%s: %s = %v, the ledger has %v", name, m, gv, bv)
				}
			}
			const alloc = "sim.alloc_bytes_per_packet"
			if bv, ok := b.Metrics[alloc]; ok && math.Abs(g.Metrics[alloc]-bv) > allocTolerance*bv {
				t.Errorf("%s: %s = %.1f, the ledger has %.1f (tolerance %.0f %%)", name, alloc, g.Metrics[alloc], bv, 100*allocTolerance)
			}
			const rss = "peak_rss_mb"
			if bv, ok := b.Metrics[rss]; ok && !g.Traced && g.Metrics[rss] > (1+rssTolerance)*bv {
				msg := fmt.Sprintf("%s: %s = %.1f at nproc %d, the ledger has %.1f at nproc %d (tolerance +%.0f %%)",
					name, rss, g.Metrics[rss], g.Nproc, bv, b.Nproc, 100*rssTolerance)
				if g.Nproc == b.Nproc {
					t.Error(msg)
				} else {
					t.Log(msg + "; not gated across CPU counts")
				}
			}
		}
	}
}
