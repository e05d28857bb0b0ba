package graph

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// scalarStats recomputes what BitBFSBatch reports for one source from the
// scalar BFS distance vector: the oracle of the cross-checks below.
func scalarStats(g *Graph, src int, dst []bool) (ecc int32, sum int64, reached int64) {
	dist := g.BFSDistances(src, nil)
	for v, d := range dist {
		if v == src || d == Unreachable {
			continue
		}
		if dst != nil && !dst[v] {
			continue
		}
		if d > ecc {
			ecc = d
		}
		sum += int64(d)
		reached++
	}
	return ecc, sum, reached
}

// randomBitGraph builds a random graph; roughly a third of the seeds
// produce disconnected graphs (low edge budget or an isolated tail).
func randomBitGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(200)
	edges := rng.Intn(3*n + 1)
	if seed%3 == 0 {
		edges = rng.Intn(n/2 + 1) // sparse: almost surely disconnected
	}
	b := NewBuilder("rand", n)
	for i := 0; i < edges; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

// TestBitBFSMatchesScalarBFS: for random graphs (including disconnected
// ones), every lane of a 64-way batch reports exactly the per-source
// eccentricity, distance sum and reach count of a scalar BFS.
func TestBitBFSMatchesScalarBFS(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomBitGraph(seed)
		var s BitBFSScratch
		var srcs [64]int32
		for base := 0; base < g.N(); base += 64 {
			lanes := min(64, g.N()-base)
			for i := 0; i < lanes; i++ {
				srcs[i] = int32(base + i)
			}
			st, _ := g.BitBFSBatch(srcs[:lanes], &s, nil, nil)
			for l := 0; l < lanes; l++ {
				ecc, sum, reached := scalarStats(g, base+l, nil)
				if st.Ecc[l] != ecc || st.Sum[l] != sum || st.Reached[l] != reached {
					t.Logf("seed %d src %d: kernel (%d,%d,%d) scalar (%d,%d,%d)",
						seed, base+l, st.Ecc[l], st.Sum[l], st.Reached[l], ecc, sum, reached)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBitBFSDestinationFilter: with a destination mask, lane stats count
// exactly the masked vertices — the fault sweep's host-restricted mode.
func TestBitBFSDestinationFilter(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomBitGraph(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		dst := make([]bool, g.N())
		for v := range dst {
			dst[v] = rng.Intn(2) == 0
		}
		var s BitBFSScratch
		lanes := min(64, g.N())
		srcs := make([]int32, lanes)
		for i := range srcs {
			srcs[i] = int32(rng.Intn(g.N()))
		}
		st, _ := g.BitBFSBatch(srcs, &s, dst, nil)
		for l, src := range srcs {
			ecc, sum, reached := scalarStats(g, int(src), dst)
			if st.Ecc[l] != ecc || st.Sum[l] != sum || st.Reached[l] != reached {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// AllPairsStatsScalar is the reference the all-pairs tests compare the
// bit-parallel engine against: one queue-based BFS per source, serial.
// It is a method so the external graph_test files reach it too.
func (g *Graph) AllPairsStatsScalar() PathStats {
	stats := PathStats{Connected: true}
	var sum int64
	var dist []int32
	var scratch BFSScratch
	for src := 0; src < g.n; src++ {
		dist = g.BFSDistancesScratch(src, dist, &scratch)
		for v, d := range dist {
			switch {
			case v == src:
			case d == Unreachable:
				stats.Connected = false
			default:
				stats.Diameter = max(stats.Diameter, d)
				sum += int64(d)
				stats.Pairs++
			}
		}
	}
	if stats.Pairs > 0 {
		stats.AvgPath = float64(sum) / float64(stats.Pairs)
	}
	return stats
}

// TestAllPairsStatsMatchesScalar: the bit-parallel AllPairsStats is
// bit-identical to the scalar reference on random graphs, connected or
// not.
func TestAllPairsStatsMatchesScalar(t *testing.T) {
	prop := func(seed int64) bool {
		g := randomBitGraph(seed)
		bit, scalar := g.AllPairsStats(), g.AllPairsStatsScalar()
		return bit == scalar
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestAllPairsStatsSerialMatchesParallel: the pool-worker serial variant
// and the sharded parallel driver agree exactly.
func TestAllPairsStatsSerialMatchesParallel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomBitGraph(seed)
		var s BitBFSScratch
		if a, b := g.AllPairsStatsSerial(&s), g.AllPairsStats(); a != b {
			t.Errorf("seed %d: serial %+v != parallel %+v", seed, a, b)
		}
	}
}

// TestAllPairsStatsWorkerCountIndependent pins the sharded-determinism
// claim directly: GOMAXPROCS=1 and the ambient worker count produce
// identical results (the CI determinism job additionally runs the golden
// suites under GOMAXPROCS=1).
func TestAllPairsStatsWorkerCountIndependent(t *testing.T) {
	g := randomBitGraph(17)
	wide := g.AllPairsStats()
	wideHist := g.DistanceHistogram()
	prev := runtime.GOMAXPROCS(1)
	narrow := g.AllPairsStats()
	narrowHist := g.DistanceHistogram()
	runtime.GOMAXPROCS(prev)
	if wide != narrow {
		t.Errorf("stats differ across worker counts: %+v vs %+v", wide, narrow)
	}
	if len(wideHist) != len(narrowHist) {
		t.Fatalf("histogram lengths differ: %d vs %d", len(wideHist), len(narrowHist))
	}
	for d := range wideHist {
		if wideHist[d] != narrowHist[d] {
			t.Errorf("hist[%d] differs: %d vs %d", d, wideHist[d], narrowHist[d])
		}
	}
}

// TestDistanceHistogram cross-checks the histogram against scalar BFS
// counting and against the AllPairsStats aggregates it must refine.
func TestDistanceHistogram(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		g := randomBitGraph(seed)
		want := map[int32]int64{}
		for src := 0; src < g.N(); src++ {
			dist := g.BFSDistances(src, nil)
			for v, d := range dist {
				if v != src && d != Unreachable {
					want[d]++
				}
			}
		}
		hist := g.DistanceHistogram()
		if hist[0] != 0 {
			t.Fatalf("seed %d: hist[0] = %d", seed, hist[0])
		}
		var pairs, sum int64
		var diam int32
		for d := 1; d < len(hist); d++ {
			if hist[d] != want[int32(d)] {
				t.Errorf("seed %d: hist[%d] = %d, want %d", seed, d, hist[d], want[int32(d)])
			}
			pairs += hist[d]
			sum += int64(d) * hist[d]
			if hist[d] > 0 {
				diam = int32(d)
			}
		}
		stats := g.AllPairsStats()
		if pairs != stats.Pairs || diam != stats.Diameter {
			t.Errorf("seed %d: histogram (pairs=%d diam=%d) disagrees with stats %+v", seed, pairs, diam, stats)
		}
		if pairs > 0 && float64(sum)/float64(pairs) != stats.AvgPath {
			t.Errorf("seed %d: histogram mean disagrees with AvgPath", seed)
		}
	}
}

// TestEccentricities cross-checks the all-vertex variant against the
// single-source Eccentricity.
func TestEccentricities(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomBitGraph(seed)
		eccs := g.Eccentricities()
		for v := 0; v < g.N(); v++ {
			want, _ := g.Eccentricity(v)
			if eccs[v] != want {
				t.Errorf("seed %d: ecc[%d] = %d, want %d", seed, v, eccs[v], want)
			}
		}
	}
}

// TestBitBFSBatchEdgeCases: empty batches, singleton graphs, oversized
// batches.
func TestBitBFSBatchEdgeCases(t *testing.T) {
	g := NewBuilder("one", 1).Build()
	var s BitBFSScratch
	st, hist := g.BitBFSBatch(nil, &s, nil, nil)
	if st.Lanes != 0 || hist != nil {
		t.Errorf("empty batch: %+v", st)
	}
	st, _ = g.BitBFSBatch([]int32{0}, &s, nil, nil)
	if st.Reached[0] != 0 || st.Ecc[0] != 0 {
		t.Errorf("singleton: %+v", st)
	}
	if stats := g.AllPairsStats(); !stats.Connected || stats.Pairs != 0 {
		t.Errorf("singleton stats: %+v", stats)
	}
	empty := NewBuilder("zero", 0).Build()
	if stats := empty.AllPairsStats(); !stats.Connected || stats.Pairs != 0 {
		t.Errorf("empty graph stats: %+v", stats)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for >64 sources")
		}
	}()
	g65 := complete(65)
	g65.BitBFSBatch(make([]int32, 65), &s, nil, nil)
}

// TestScratchVariantsMatch: the scratch-reusing Eccentricity/IsConnected
// variants agree with their allocating counterparts across graphs of
// different sizes (the scratch must regrow correctly).
func TestScratchVariantsMatch(t *testing.T) {
	var (
		dist []int32
		s    BFSScratch
	)
	for seed := int64(0); seed < 12; seed++ {
		g := randomBitGraph(seed)
		gotConn, d := g.IsConnectedScratch(dist, &s)
		dist = d
		if want := g.IsConnected(); gotConn != want {
			t.Errorf("seed %d: IsConnectedScratch = %v, want %v", seed, gotConn, want)
		}
		src := int(seed) % g.N()
		ecc, conn, d2 := g.EccentricityScratch(src, dist, &s)
		dist = d2
		wantEcc, wantConn := g.Eccentricity(src)
		if ecc != wantEcc || conn != wantConn {
			t.Errorf("seed %d: EccentricityScratch = (%d,%v), want (%d,%v)", seed, ecc, conn, wantEcc, wantConn)
		}
	}
}
