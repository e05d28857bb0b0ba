package graph

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// scalarStats recomputes what BitBFSBatch reports for one source from the
// scalar BFS distance vector: the oracle of the cross-checks below.
func scalarStats(g *Graph, src int, dst []bool) (ecc int32, sum int64, reached int64) {
	dist := g.BFSDistances(src, nil, nil)
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
		dist = g.BFSDistances(src, dist, &scratch)
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
			dist := g.BFSDistances(src, nil, nil)
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

// TestScratchVariantsMatch: IsConnected gives the same answers with a
// scratch reused across graphs of different sizes (the scratch must
// regrow correctly) as with a fresh one per call.
func TestScratchVariantsMatch(t *testing.T) {
	var s BFSScratch
	for seed := int64(0); seed < 12; seed++ {
		g := randomBitGraph(seed)
		if got, want := g.IsConnected(&s), g.IsConnected(nil); got != want {
			t.Errorf("seed %d: IsConnected with reused scratch = %v, want %v", seed, got, want)
		}
	}
}

// TestBitBFSOneKernelThreeFaces: BitBFSBatch, BitBFSBatchArcs,
// BitBFSBatchPlanes and BitBFSBatchRows run the same level loop, so on
// any batch they return
// the same BatchBFSStats, and everything each records agrees lane by lane
// with a scalar BFS — whichever way the loop ends (coverage, empty level,
// limit).
func TestBitBFSOneKernelThreeFaces(t *testing.T) {
	// Two components and an isolated vertex: no lane ever covers the
	// graph, so every batch must end on an empty level.
	split := NewBuilder("split", 71)
	for i := 0; i+1 < 40; i++ {
		split.AddEdge(i, i+1)
	}
	for i := 40; i < 70; i++ {
		split.AddEdge(i, 40+(i-39)%30)
	}
	consecutive := func(n int) []int32 {
		srcs := make([]int32, n)
		for i := range srcs {
			srcs[i] = int32(i)
		}
		return srcs
	}
	// Sources drawn from a 12-cycle repeat in every batch wider than 12.
	repeated := func(lanes int) []int32 {
		srcs := make([]int32, lanes)
		for i := range srcs {
			srcs[i] = int32((7 * i) % 12)
		}
		return srcs
	}
	dense := gnp(150, 0.06, 3)
	few := make([]bool, dense.N())
	few[3], few[77], few[149] = true, true, true
	cases := []struct {
		name   string
		g      *Graph
		srcs   []int32
		dst    []bool // BitBFSBatch only
		distOK bool   // every distance below 255
	}{
		{"disconnected", split.Build(), consecutive(64), nil, true},
		{"disconnected, one lane", split.Build(), []int32{70}, nil, true},
		{"mask excludes most vertices", dense, consecutive(64), few, true},
		{"1 lane", cycle(12), repeated(1), nil, true},
		{"63 lanes, repeated sources", cycle(12), repeated(63), nil, true},
		{"64 lanes, repeated sources", cycle(12), repeated(64), nil, true},
		{"eccentricity 254", path(255), []int32{0, 254, 100}, nil, true},
		{"eccentricity 255", path(256), []int32{100, 0}, nil, false},
		{"path of 300", path(300), []int32{0}, nil, false},
	}
	var s BitBFSScratch
	for _, c := range cases {
		g, n, lanes := c.g, c.g.N(), len(c.srcs)
		// Scalar oracle: distance vectors, level counts, lane stats.
		ref := make([][]int32, lanes)
		want := BatchBFSStats{Lanes: lanes}
		var maxEcc int32
		for l, src := range c.srcs {
			ref[l] = g.BFSDistances(int(src), nil, nil)
			want.Ecc[l], want.Sum[l], want.Reached[l] = scalarStats(g, int(src), nil)
			maxEcc = max(maxEcc, want.Ecc[l])
		}
		wantHist := make([]int64, maxEcc+1)
		for l := range c.srcs {
			for v, d := range ref[l] {
				if d > 0 && (c.dst == nil || c.dst[v]) {
					wantHist[d]++
				}
			}
		}

		plain, _ := g.BitBFSBatch(c.srcs, &s, nil, nil)
		if plain != want {
			t.Errorf("%s: BitBFSBatch %+v, scalar %+v", c.name, plain, want)
		}
		masked, hist := g.BitBFSBatch(c.srcs, &s, c.dst, []int64{0})
		for l, src := range c.srcs {
			ecc, sum, reached := scalarStats(g, int(src), c.dst)
			if masked.Ecc[l] != ecc || masked.Sum[l] != sum || masked.Reached[l] != reached {
				t.Errorf("%s lane %d: masked stats (%d,%d,%d), scalar (%d,%d,%d)", c.name, l,
					masked.Ecc[l], masked.Sum[l], masked.Reached[l], ecc, sum, reached)
			}
		}
		for len(hist) < len(wantHist) {
			hist = append(hist, 0) // trailing levels without a counted pair
		}
		for d := range hist {
			if d >= len(wantHist) || hist[d] != wantHist[d] {
				t.Errorf("%s: hist %v, scalar %v", c.name, hist, wantHist)
				break
			}
		}

		stride := lanes + 3 // a caller's stride may exceed the batch
		dist := make([]uint8, n*stride)
		for i := range dist {
			dist[i] = 0xAA // stale bytes the kernel must overwrite
		}
		planes := make([]uint64, 8*n)
		for i := range planes {
			planes[i] = 0xAAAA_AAAA_AAAA_AAAA
		}
		st, ok := g.BitBFSBatchArcs(c.srcs, &s, dist, stride, nil)
		pst, pok := g.BitBFSBatchPlanes(c.srcs, &s, planes)
		if ok != c.distOK || pok != c.distOK {
			t.Errorf("%s: BitBFSBatchArcs ok=%v, BitBFSBatchPlanes ok=%v, want %v", c.name, ok, pok, c.distOK)
		}
		if ok && pok {
			if st != want || pst != want {
				t.Errorf("%s: BitBFSBatchArcs %+v, BitBFSBatchPlanes %+v, scalar %+v", c.name, st, pst, want)
			}
			for l := range c.srcs {
				for v, d := range ref[l] {
					wantD := DistUnreachable
					if d != Unreachable {
						wantD = uint8(d)
					}
					if dist[v*stride+l] != wantD {
						t.Fatalf("%s lane %d: dist[%d] = %d, want %d", c.name, l, v, dist[v*stride+l], wantD)
					}
					if got := planeDist(planes[8*v:8*v+8], l); got != wantD {
						t.Fatalf("%s lane %d: planes at %d read %d, want %d", c.name, l, v, got, wantD)
					}
				}
			}
		}

		// One short of the largest eccentricity does not fit; one more does.
		rows := make([]int32, lanes*int(maxEcc+1))
		if maxEcc >= 1 {
			if _, ok := g.BitBFSBatchRows(c.srcs, &s, rows, int(maxEcc)); ok {
				t.Errorf("%s: BitBFSBatchRows fit eccentricity %d into stride %d", c.name, maxEcc, maxEcc)
			}
		}
		for i := range rows {
			rows[i] = -1 // a dirty buffer is allowed
		}
		rstride := int(maxEcc + 1)
		st, ok = g.BitBFSBatchRows(c.srcs, &s, rows, rstride)
		if !ok || st != want {
			t.Errorf("%s: BitBFSBatchRows ok=%v %+v, scalar %+v", c.name, ok, st, want)
		}
		for l := range c.srcs {
			wantRow := make([]int32, rstride)
			for _, d := range ref[l] {
				if d > 0 {
					wantRow[d]++
				}
			}
			for d, w := range wantRow {
				if rows[l*rstride+d] != w {
					t.Fatalf("%s lane %d: rows[%d] = %d, want %d", c.name, l, d, rows[l*rstride+d], w)
				}
			}
		}
	}
}

// planeDist decodes lane's distance from the eight bit planes p.
func planeDist(p []uint64, lane int) uint8 {
	var d uint8
	for i, w := range p[:8] {
		d |= uint8(w>>uint(lane)&1) << uint(i)
	}
	return d
}

// TestBitBFSBatchArcs: on random graphs (disconnected ones included),
// bit lane of arcs[c], c = v→w, is set exactly when a scalar BFS from
// srcs[lane] puts w one hop closer than v, and the distances match too —
// for a full consecutive batch, a partial one and a sorted
// non-consecutive source list (a repair's dirty rows), each time into a
// dirty arc buffer.
func TestBitBFSBatchArcs(t *testing.T) {
	var s BitBFSScratch
	for seed := int64(0); seed < 30; seed++ {
		g := randomBitGraph(seed)
		n := g.N()
		rng := rand.New(rand.NewSource(seed))
		var scattered []int32
		for v := 0; v < n && len(scattered) < 64; v++ {
			if rng.Intn(3) == 0 {
				scattered = append(scattered, int32(v))
			}
		}
		consecutive := make([]int32, min(64, n))
		for i := range consecutive {
			consecutive[i] = int32(i)
		}
		partial := consecutive[:min(37, n)]
		for _, srcs := range [][]int32{consecutive, partial, scattered} {
			dist := make([]uint8, n*64)
			arcs := make([]uint64, g.NumChannels())
			for c := range arcs {
				arcs[c] = rng.Uint64()
			}
			if _, ok := g.BitBFSBatchArcs(srcs, &s, dist, 64, arcs); !ok {
				t.Fatalf("seed %d: distance limit hit", seed)
			}
			for lane, src := range srcs {
				ref := g.BFSDistances(int(src), nil, nil)
				for v := 0; v < n; v++ {
					if want := uint8(ref[v]); dist[v*64+lane] != want {
						t.Fatalf("seed %d lane %d: dist[%d] = %d, want %d", seed, lane, v, dist[v*64+lane], want)
					}
					for c := g.FirstChannel(v); c < g.FirstChannel(v)+g.Degree(v); c++ {
						w := g.ChannelTo(c)
						want := ref[v] > 0 && ref[w] == ref[v]-1
						if got := arcs[c]>>uint(lane)&1 == 1; got != want {
							t.Fatalf("seed %d lane %d (src %d): arc %d→%d = %v, want %v (dist %d→%d)",
								seed, lane, src, v, w, got, want, ref[v], ref[w])
						}
					}
				}
			}
			for c, a := range arcs {
				if a>>uint(len(srcs)) != 0 {
					t.Fatalf("seed %d: arc %d has bits beyond lane %d", seed, c, len(srcs))
				}
			}
		}
	}
}

// TestLaneCounter checks the bit-sliced counter against counting each
// lane's bit directly: on both sides of the 16-word block boundaries, so
// drains land mid-block and on one, past 2¹⁶ additions and across
// drains.
func TestLaneCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var c laneCounter
	var got, want [64]int64
	for round, adds := range []int{0, 1, 15, 16, 17, 31, 32, 33, 1000, 1<<16 + 5} {
		want = [64]int64{}
		for i := 0; i < adds; i++ {
			w := rng.Uint64() & rng.Uint64() // lanes set a quarter of the time
			w |= 1 << 5                      // lane 5 always: its count is adds
			w &^= 1 << 9                     // lane 9 never
			c.add(w)
			for lane := 0; lane < 64; lane++ {
				want[lane] += int64(w >> uint(lane) & 1)
			}
		}
		c.drain(&got)
		if got != want {
			t.Fatalf("round %d (%d adds): counts %v, want %v", round, adds, got, want)
		}
		if c != (laneCounter{}) {
			t.Fatalf("round %d: counter not zero after drain", round)
		}
	}
	if want[5] < 1<<16 || want[9] != 0 {
		t.Fatalf("test does not reach 2^16: lane 5 = %d, lane 9 = %d", want[5], want[9])
	}
	// One word is OnesCount64 spread over the lanes.
	w := rng.Uint64()
	c.add(w)
	c.drain(&got)
	var total int64
	for _, n := range got {
		total += n
	}
	if total != int64(bits.OnesCount64(w)) {
		t.Fatalf("one word: lane counts sum to %d, popcount %d", total, bits.OnesCount64(w))
	}
}

// FuzzLaneCounter checks arbitrary word sequences, drained at arbitrary
// points, against counting each lane's bit directly.
func FuzzLaneCounter(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff"), uint16(1))
	f.Add(make([]byte, 8*40), uint16(16))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"+
		"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"), uint16(5))
	f.Fuzz(func(t *testing.T, data []byte, every uint16) {
		var c laneCounter
		var got, want [64]int64
		check := func(i int) {
			c.drain(&got)
			if got != want {
				t.Fatalf("after word %d: counts %v, want %v", i, got, want)
			}
			if c != (laneCounter{}) {
				t.Fatalf("after word %d: counter not zero after drain", i)
			}
			want = [64]int64{}
		}
		for i := 0; i+8 <= len(data); i += 8 {
			w := binary.LittleEndian.Uint64(data[i:])
			c.add(w)
			for lane := 0; lane < 64; lane++ {
				want[lane] += int64(w >> uint(lane) & 1)
			}
			if every > 0 && (i/8+1)%int(every) == 0 {
				check(i / 8)
			}
		}
		check(len(data) / 8)
	})
}

// TestBitBFSBatchZeroAllocs: on a warmed scratch none of the four entry
// points allocates, so all-pairs drivers, DeltaStats and table builds pay
// per batch for traversal only.
func TestBitBFSBatchZeroAllocs(t *testing.T) {
	g := gnp(200, 0.05, 7)
	srcs := make([]int32, 64)
	for i := range srcs {
		srcs[i] = int32(i)
	}
	var s BitBFSScratch
	hist := make([]int64, 64)
	dist := make([]uint8, g.N()*64)
	planes := make([]uint64, g.N()*8)
	rows := make([]int32, 64*64)
	arcs := make([]uint64, g.NumChannels())
	allocs := testing.AllocsPerRun(10, func() {
		g.BitBFSBatch(srcs, &s, nil, nil)
		g.BitBFSBatch(srcs, &s, nil, hist)
		g.BitBFSBatchPlanes(srcs, &s, planes)
		g.BitBFSBatchRows(srcs, &s, rows, 64)
		g.BitBFSBatchArcs(srcs, &s, dist, 64, arcs)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per five batches on a warmed scratch, want 0", allocs)
	}
}
