package search

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"polarstar/internal/graph"
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
