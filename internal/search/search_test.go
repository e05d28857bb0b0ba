package search

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/moore"
	"polarstar/internal/topo"
)

func startGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := topo.NewJellyfish(64, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testParams() Params {
	return Params{
		Seed:        7,
		Searchers:   4,
		Epochs:      4,
		Iters:       200,
		InitTemp:    40,
		Cooling:     0.8,
		ResyncEvery: 64,
	}
}

func runOnce(t testing.TB, workers int) *Result {
	t.Helper()
	p := testParams()
	p.Workers = workers
	e, err := New(startGraph(t), p)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run()
}

// TestSearchDeterminism pins the determinism contract: identical results
// at workers 1, 4 and 16 — best graph, cost, trajectory, every counter.
func TestSearchDeterminism(t *testing.T) {
	ref := runOnce(t, 1)
	for _, workers := range []int{4, 16} {
		got := runOnce(t, workers)
		if got.BestCost != ref.BestCost {
			t.Errorf("workers=%d: best cost %d != %d", workers, got.BestCost, ref.BestCost)
		}
		if got.Stats != ref.Stats {
			t.Errorf("workers=%d: stats %+v != %+v", workers, got.Stats, ref.Stats)
		}
		if !reflect.DeepEqual(got.Trajectory, ref.Trajectory) {
			t.Errorf("workers=%d: trajectories differ", workers)
		}
		if got.Counters != ref.Counters {
			t.Errorf("workers=%d: counters %+v != %+v", workers, got.Counters, ref.Counters)
		}
		if !reflect.DeepEqual(got.Best.Edges(), ref.Best.Edges()) {
			t.Errorf("workers=%d: best graphs differ", workers)
		}
	}
	if ref.Counters.Drift != 0 {
		t.Errorf("resync drift detected: %d", ref.Counters.Drift)
	}
}

// TestSplitWorkers pins the budget rules: searcher-level parallelism
// fills first (it is bounded by Searchers), the remainder deepens each
// evaluation, and drivers·intra never exceeds the budget.
func TestSplitWorkers(t *testing.T) {
	cases := []struct {
		workers, searchers, drivers, intra int
	}{
		{0, 4, 1, 1},    // unset budget: fully serial
		{1, 4, 1, 1},    // today's default
		{4, 4, 4, 1},    // many searchers: one goroutine each
		{8, 4, 4, 2},    // spare budget becomes per-Apply depth
		{8, 2, 2, 4},    // few searchers: deep Apply parallelism
		{8, 1, 1, 8},    // one big-n searcher: all depth
		{16, 4, 4, 4},   //
		{3, 2, 2, 1},    // odd budget: floor division, never oversubscribe
		{7, 3, 3, 2},    //
		{2, 16, 2, 1},   // budget below searcher count
		{16, 16, 16, 1}, //
	}
	for _, c := range cases {
		drivers, intra := splitWorkers(c.workers, c.searchers)
		if drivers != c.drivers || intra != c.intra {
			t.Errorf("splitWorkers(%d, %d) = (%d, %d), want (%d, %d)",
				c.workers, c.searchers, drivers, intra, c.drivers, c.intra)
		}
		if c.workers > 0 && drivers*intra > c.workers {
			t.Errorf("splitWorkers(%d, %d) oversubscribes: %d·%d", c.workers, c.searchers, drivers, intra)
		}
	}
}

// TestSearchDeterminismBudget pins that the Workers budget — including
// splits that activate intra-Apply pooling (searchers=2, workers=8 →
// 2 drivers × 4-wide pools) — cannot change any result bit. Larger
// start graph than TestSearchDeterminism so the pooled phases actually
// shard.
func TestSearchDeterminismBudget(t *testing.T) {
	run := func(workers int) *Result {
		g, err := topo.NewJellyfish(256, 8, 13)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Seed: 11, Searchers: 2, Epochs: 3, Iters: 120,
			InitTemp: 64, Cooling: 0.8, ResyncEvery: 32, Workers: workers}
		e, err := New(g, p)
		if err != nil {
			t.Fatal(err)
		}
		wantDrivers, wantIntra := splitWorkers(workers, 2)
		if d, i := e.WorkerSplit(); d != wantDrivers || i != wantIntra {
			t.Fatalf("workers=%d: split (%d,%d), want (%d,%d)", workers, d, i, wantDrivers, wantIntra)
		}
		return e.Run()
	}
	ref := run(1)
	if ref.Counters.DistsBytes <= 0 {
		t.Error("DistsBytes high-water not recorded")
	}
	for _, workers := range []int{4, 8} {
		got := run(workers)
		if got.BestCost != ref.BestCost || got.Counters != ref.Counters {
			t.Errorf("workers=%d: cost/counters differ: %d %+v vs %d %+v",
				workers, got.BestCost, got.Counters, ref.BestCost, ref.Counters)
		}
		if !reflect.DeepEqual(got.Trajectory, ref.Trajectory) {
			t.Errorf("workers=%d: trajectories differ", workers)
		}
		if !reflect.DeepEqual(got.Best.Edges(), ref.Best.Edges()) {
			t.Errorf("workers=%d: best graphs differ", workers)
		}
	}
}

// TestSearchImproves checks the annealer actually lowers the cost on a
// random-regular start, that the reported stats match the returned
// graph, and that the best graph preserves the degree sequence.
func TestSearchImproves(t *testing.T) {
	start := startGraph(t)
	startCost := startCostOf(t, start)
	r := runOnce(t, 1)
	if r.BestCost >= startCost {
		t.Errorf("search did not improve: %d -> %d", startCost, r.BestCost)
	}
	if got := r.Best.AllPairsStats(); got != r.Stats {
		t.Errorf("result stats %+v do not match best graph %+v", r.Stats, got)
	}
	for v := 0; v < start.N(); v++ {
		if r.Best.Degree(v) != start.Degree(v) {
			t.Fatalf("vertex %d degree changed: %d -> %d", v, start.Degree(v), r.Best.Degree(v))
		}
	}
	if len(r.Trajectory) != 4 {
		t.Errorf("trajectory has %d points, want 4", len(r.Trajectory))
	}
	last := r.Trajectory[len(r.Trajectory)-1]
	if last.BestCost != r.BestCost {
		t.Errorf("trajectory tail %d != result %d", last.BestCost, r.BestCost)
	}
}

func startCostOf(t testing.TB, g *graph.Graph) int64 {
	t.Helper()
	d := graph.NewDeltaStats(g)
	return costOf(d, g.N())
}

// TestCheckpointRoundTrip pins byte-stability: checkpoint → write → read
// → restore → checkpoint must reproduce identical bytes, and a run
// resumed at the same epoch target is a no-op.
func TestCheckpointRoundTrip(t *testing.T) {
	p := testParams()
	p.Workers = 2
	e, err := New(startGraph(t), p)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.json")
	pathB := filepath.Join(dir, "b.json")
	if err := WriteCheckpoint(pathA, e.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(pathA)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(cp, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2.Run() // epochs already completed: must be a no-op
	if err := WriteCheckpoint(pathB, e2.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(pathA)
	b, _ := os.ReadFile(pathB)
	if !bytes.Equal(a, b) {
		t.Fatal("checkpoint round trip is not byte-stable")
	}
}

// TestResumeMatchesUninterrupted: stopping after 2 epochs and resuming
// to 4 yields exactly the result of running 4 straight.
func TestResumeMatchesUninterrupted(t *testing.T) {
	straight := runOnce(t, 1)

	p := testParams()
	p.Epochs = 2
	p.Workers = 1
	e, err := New(startGraph(t), p)
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	cp := e.Checkpoint()
	// Serialize/deserialize to prove resume works from the file format,
	// not from live state.
	path := filepath.Join(t.TempDir(), "cp.json")
	if err := WriteCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	cp2, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Restore(cp2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	resumed := e2.Run()
	if resumed.BestCost != straight.BestCost || resumed.Counters != straight.Counters {
		t.Errorf("resumed run differs: cost %d vs %d, counters %+v vs %+v",
			resumed.BestCost, straight.BestCost, resumed.Counters, straight.Counters)
	}
	if !reflect.DeepEqual(resumed.Trajectory, straight.Trajectory) {
		t.Error("resumed trajectory differs from uninterrupted run")
	}
	if !reflect.DeepEqual(resumed.Best.Edges(), straight.Best.Edges()) {
		t.Error("resumed best graph differs from uninterrupted run")
	}
}

// TestRestoreValidation: a malformed checkpoint (`pssearch -resume` reads
// outside bytes) is an error from Restore, never a panic there or later.
func TestRestoreValidation(t *testing.T) {
	e, err := New(startGraph(t), testParams())
	if err != nil {
		t.Fatal(err)
	}
	good := e.Checkpoint()
	if _, err := Restore(good, 1, 0); err != nil {
		t.Fatalf("good checkpoint rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(cp *Checkpoint)
	}{
		{"bad schema", func(cp *Checkpoint) { cp.Schema = "nope/v0" }},
		{"truncated states", func(cp *Checkpoint) { cp.States = cp.States[:1] }},
		{"cost/graph mismatch", func(cp *Checkpoint) { cp.States[0].Cost += 5 }},
		{"negative n", func(cp *Checkpoint) { cp.N = -1 }},
		{"edge endpoint above n", func(cp *Checkpoint) { cp.States[1].Edges[3][1] = int32(cp.N) }},
		{"negative edge endpoint", func(cp *Checkpoint) { cp.States[1].Edges[3][0] = -2 }},
		{"best edge above n", func(cp *Checkpoint) { cp.BestEdges[0][1] = int32(cp.N) + 7 }},
		{"state best edge above n", func(cp *Checkpoint) { cp.States[2].BestEdges[5][0] = int32(cp.N) }},
		{"too few edges", func(cp *Checkpoint) {
			// Consistent cost, so only the edge count is wrong: 2-opt
			// would draw from zero arcs.
			st := &cp.States[0]
			st.Edges = st.Edges[:0]
			st.Cost = costOf(graph.NewDeltaStats(buildFromEdges(cp.Name, cp.N, st.Edges)), cp.N)
		}},
		{"non-hex rng", func(cp *Checkpoint) { cp.States[0].Rng = "0123456789abcdeg" }},
	} {
		bad := cloneCheckpoint(good)
		c.mutate(bad)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", c.name, r)
				}
			}()
			// Run too: an accepted checkpoint whose best edges are out of
			// range would panic only when the result is built.
			if e, err := Restore(bad, 1, 0); err == nil {
				e.Run()
				t.Errorf("%s: accepted", c.name)
			}
		}()
	}
}

// cloneCheckpoint deep-copies the parts of a checkpoint the validation
// cases mutate.
func cloneCheckpoint(cp *Checkpoint) *Checkpoint {
	edges := func(es [][2]int32) [][2]int32 { return append([][2]int32(nil), es...) }
	c := *cp
	c.BestEdges = edges(cp.BestEdges)
	c.States = append([]SearcherState(nil), cp.States...)
	for i := range c.States {
		c.States[i].Edges = edges(c.States[i].Edges)
		c.States[i].BestEdges = edges(c.States[i].BestEdges)
	}
	return &c
}

func TestNewRejectsDegenerateStarts(t *testing.T) {
	b := graph.NewBuilder("one-edge", 4)
	b.AddEdge(0, 1)
	if _, err := New(b.Build(), testParams()); err == nil {
		t.Error("single-edge start accepted")
	}
	lb := graph.NewBuilder("loopy", 4)
	lb.AddEdge(0, 1)
	lb.AddEdge(2, 3)
	lb.AddEdge(2, 2)
	if _, err := New(lb.Build(), testParams()); err == nil {
		t.Error("self-loop start accepted")
	}
}

// TestProposeSwapCoversArcs sanity-checks arcOwner over the whole CSR.
func TestProposeSwapCoversArcs(t *testing.T) {
	g := startGraph(t)
	for c := 0; c < g.NumChannels(); c++ {
		u := arcOwner(g, c)
		if c < g.FirstChannel(u) || c >= g.FirstChannel(u+1) {
			t.Fatalf("arc %d attributed to vertex %d outside its window", c, u)
		}
	}
}

// bench4k is graph_search's 4k search: jellyfish(4096, 16) and two
// searchers × 2 epochs × 25 proposals on one worker, at seed 1.
func bench4k(t testing.TB) (*graph.Graph, Params) {
	t.Helper()
	g, err := topo.NewJellyfish(4096, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g, Params{Seed: 1, Searchers: 2, Epochs: 2, Iters: 25, Workers: 1}
}

// TestSearchBenchGolden pins the trajectory of the benchmark's 4k search:
// a change that moves it fails here, not only in the bench digest.
func TestSearchBenchGolden(t *testing.T) {
	e, err := New(bench4k(t))
	if err != nil {
		t.Fatal(err)
	}
	r := e.Run()
	wantStats := graph.PathStats{Diameter: 5, AvgPath: 3.322910704746642, Pairs: 16773120, Connected: true}
	wantCtr := Counters{Proposed: 100, Accepted: 59, Invalid: 1, Evals: 99, DirtyTotal: 58683, DistsBytes: 262144}
	if r.BestCost != 55735580 || r.Stats != wantStats || r.Counters != wantCtr {
		t.Errorf("best cost %d, stats %+v, counters %+v; want 55735580, %+v, %+v", r.BestCost, r.Stats, r.Counters, wantStats, wantCtr)
	}
}

// BenchmarkSearchRun4k is the benchmark's 4k search unit end to end:
// search.New (one all-pairs build and a copy) and Run (100 proposals).
func BenchmarkSearchRun4k(b *testing.B) {
	g, p := bench4k(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(g, p)
		if err != nil {
			b.Fatal(err)
		}
		e.Run()
	}
}

// sameAsRebuild fails the test unless d holds what a fresh
// graph.NewDeltaStats of g would: the same edges, statistics, histogram
// and integer cost terms, and zero telemetry.
func sameAsRebuild(t *testing.T, what string, d *graph.DeltaStats, g *graph.Graph) {
	t.Helper()
	ref := graph.NewDeltaStats(g)
	sum, pairs := d.SumPairs()
	rsum, rpairs := ref.SumPairs()
	if !reflect.DeepEqual(d.Graph().Edges(), g.Edges()) || d.Stats() != ref.Stats() || sum != rsum || pairs != rpairs ||
		!reflect.DeepEqual(d.Histogram(), ref.Histogram()) {
		t.Fatalf("%s: state %+v (%d, %d) differs from a rebuild %+v (%d, %d)", what, d.Stats(), sum, pairs, ref.Stats(), rsum, rpairs)
	}
	if d.Evals != 0 || d.FullRebuilds != 0 || d.Resyncs != 0 || d.DirtyTotal != 0 || d.LastDirty != 0 || d.DistsBytes != 0 {
		t.Fatalf("%s: copied telemetry %d/%d/%d/%d/%d/%d, want zero", what,
			d.Evals, d.FullRebuilds, d.Resyncs, d.DirtyTotal, d.LastDirty, d.DistsBytes)
	}
}

// TestBarrierCopyMatchesRebuild: the searchers New copies from searcher 0,
// and every searcher a barrier restarts, hold what a rebuild from the
// start graph or from the global best edges would, and the copy path is
// taken. No searcher writes into the engine's best edges or into a
// checkpoint taken mid-run, and an engine restored from that checkpoint,
// which knows no searcher at the best until one improves on it, ends
// where the copying one does.
func TestBarrierCopyMatchesRebuild(t *testing.T) {
	g, err := topo.NewJellyfish(256, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Seed: 5, Searchers: 3, Epochs: 12, Iters: 40, InitTemp: 30, Cooling: 0.8, ResyncEvery: 32}
	e, err := New(g, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range e.searchers {
		sameAsRebuild(t, fmt.Sprintf("New, searcher %d", s.id), s.d, g)
	}
	var cp *Checkpoint
	var before []byte
	copies := 0
	for e.epoch < p.Epochs {
		if e.epoch == 3 {
			cp = e.Checkpoint()
			before, _ = json.Marshal(cp)
		}
		best, held := e.bestEdges, append([][2]int32(nil), e.bestEdges...)
		restarted, copied := e.runEpoch()
		if !reflect.DeepEqual(best, held) {
			t.Fatalf("epoch %d: a searcher wrote into the engine's best edges", e.epoch)
		}
		if restarted == nil {
			continue
		}
		if copied {
			copies++
		}
		sameAsRebuild(t, fmt.Sprintf("barrier %d, searcher %d", e.epoch, restarted.id), restarted.d, buildFromEdges(e.name, e.n, e.bestEdges))
	}
	if copies == 0 {
		t.Error("no barrier copied a searcher")
	}
	r, err := Restore(cp, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, want := r.Run(), e.result()
	if got.BestCost != want.BestCost || got.Counters != want.Counters || !reflect.DeepEqual(got.Trajectory, want.Trajectory) {
		t.Errorf("restored run ends at %d %+v, the copying run at %d %+v", got.BestCost, got.Counters, want.BestCost, want.Counters)
	}
	if after, _ := json.Marshal(cp); !bytes.Equal(after, before) {
		t.Fatal("the checkpoint changed while the engines ran on")
	}

	// After Restore no searcher is known to hold the global best, so one
	// that only beats its own recorded best is not copied: here the
	// global best costs 0, searcher 0's own best is beaten by any graph,
	// and each searcher makes one proposal that any cost accepts.
	odd := cloneCheckpoint(cp)
	odd.BestCost, odd.States[0].BestCost = 0, math.MaxInt64
	odd.Params.Iters, odd.Params.InitTemp = 1, 1e18
	if r, err = Restore(odd, 1, 0); err != nil {
		t.Fatal(err)
	}
	restarted, copied := r.runEpoch()
	if restarted == nil || copied || !r.searchers[0].atBest {
		t.Fatalf("restart %v, copied %v, searcher 0 at its best %v: want a rebuild while searcher 0 is at its own best",
			restarted != nil, copied, r.searchers[0].atBest)
	}
	sameAsRebuild(t, "after Restore", restarted.d, buildFromEdges(r.name, r.n, r.bestEdges))
}

// TestAcceptedGraphsRespectMooreBound is the Shimizu–Mori oracle on the
// search: one proposal per searcher per epoch, and after each epoch every
// connected graph a searcher holds, like the final best, has an average
// path length no lower than the Moore-type bound for its order and
// degree.
func TestAcceptedGraphsRespectMooreBound(t *testing.T) {
	for _, c := range []struct{ n, d int }{{64, 4}, {256, 8}} {
		g, err := topo.NewJellyfish(c.n, c.d, 3)
		if err != nil {
			t.Fatal(err)
		}
		bound, _ := moore.ASPLLowerBound(c.n, g.MaxDegree())
		p := Params{Seed: 9, Searchers: 3, Epochs: 150, Iters: 1, InitTemp: 20, Cooling: 0.98}
		e, err := New(g, p)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for e.epoch < p.Epochs {
			e.runEpoch()
			for _, s := range e.searchers {
				if st := s.d.Stats(); st.Connected {
					checked++
					if st.AvgPath < bound {
						t.Fatalf("jellyfish %d,%d epoch %d searcher %d: ASPL %v below the bound %v", c.n, c.d, e.epoch, s.id, st.AvgPath, bound)
					}
				}
			}
		}
		r := e.result()
		if !r.Stats.Connected || r.Stats.AvgPath < bound || checked == 0 {
			t.Fatalf("jellyfish %d,%d: best %+v against the bound %v (%d states checked)", c.n, c.d, r.Stats, bound, checked)
		}
	}
}

// FuzzCheckpoint: a checkpoint decoded from arbitrary bytes is rejected
// by Restore or restores to an engine whose Checkpoint encodes to the
// same bytes, and neither step panics. Inputs above 1024 vertices are
// skipped: Restore runs an all-pairs build per searcher.
func FuzzCheckpoint(f *testing.F) {
	g, err := topo.NewJellyfish(64, 4, 9)
	if err != nil {
		f.Fatal(err)
	}
	e, err := New(g, Params{Seed: 3, Searchers: 2, Epochs: 2, Iters: 40, InitTemp: 10})
	if err != nil {
		f.Fatal(err)
	}
	e.Run()
	seed, err := json.Marshal(e.Checkpoint())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	// A minimal valid checkpoint (two disjoint edges on four vertices:
	// distance sum 4, eight missing pairs at penalty 4, cost 36) and two
	// spellings of it that Restore must refuse because they would not
	// re-encode the same.
	small := `{"schema":"pssearch-checkpoint/v1","n":4,"params":{"searchers":1},"states":[{"rng":"%s","cost":36,"edges":%s}]}`
	for _, c := range [][2]string{{"0000000000000001", "[[0,1],[2,3]]"}, {"1", "[[0,1],[2,3]]"}, {"0000000000000001", "[[1,0],[2,3]]"}} {
		f.Add([]byte(fmt.Sprintf(small, c[0], c[1])))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp := &Checkpoint{}
		if json.Unmarshal(data, cp) != nil || cp.N > 1024 {
			return
		}
		e, err := Restore(cp, 1, 0)
		if err != nil {
			return
		}
		want, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(e.Checkpoint())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restored checkpoint re-encodes as\n%s\nnot\n%s", got, want)
		}
	})
}
