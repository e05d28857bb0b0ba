package graph_test

import (
	"math/rand"
	"reflect"
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

// oracleDirty is the dirty-source test on a byte probe: the distances
// between every source and the region (the four endpoints of sw and their
// neighbourhoods) from BitBFSBatchArcs batches, one byte per pair, and
// the removal test as a scan of the deeper endpoint's neighbour list. It
// reads the pre-swap graph and returns the dirty sources in ascending
// order (every source when a distance overflows the byte) and the region
// size.
func oracleDirty(g *graph.Graph, sw graph.Swap) ([]int32, int) {
	n := g.N()
	idx := make(map[int32]int)
	var region []int32
	ends := []int32{sw.A, sw.B, sw.C, sw.D}
	for _, v := range ends {
		idx[v], region = len(region), append(region, v)
	}
	for _, e := range ends {
		for _, w := range g.Neighbors(int(e)) {
			if _, ok := idx[w]; !ok {
				idx[w], region = len(region), append(region, w)
			}
		}
	}
	r := len(region)
	dists := make([]uint8, n*r)
	var s graph.BitBFSScratch
	all := make([]int32, n)
	for v := range all {
		all[v] = int32(v)
	}
	for base := 0; base < r; base += 64 {
		lanes := min(64, r-base)
		if _, ok := g.BitBFSBatchArcs(region[base:base+lanes], &s, dists[base:], r, nil); !ok {
			return all, r
		}
	}
	added := func(dx, dy uint8) bool {
		if dx == dy {
			return false
		}
		if dx == graph.DistUnreachable || dy == graph.DistUnreachable {
			return true
		}
		return max(dx, dy)-min(dx, dy) >= 2
	}
	removed := func(row []uint8, x, y int32, dx, dy, px, py uint8) bool {
		if dx == dy {
			return false
		}
		if dx > dy {
			x, y, dx, dy, px, py = y, x, dy, dx, py, px
		}
		if py == dy-1 {
			return false
		}
		for _, w := range g.Neighbors(int(y)) {
			if w != x && row[idx[w]] == dy-1 {
				return false
			}
		}
		return true
	}
	var dirty []int32
	for src := 0; src < n; src++ {
		row := dists[src*r : (src+1)*r]
		da, db, dc, dd := row[0], row[1], row[2], row[3]
		if added(da, dc) || added(db, dd) ||
			removed(row, sw.A, sw.B, da, db, dc, dd) || removed(row, sw.C, sw.D, dc, dd, da, db) {
			dirty = append(dirty, int32(src))
		}
	}
	return dirty, r
}

// TestDirtyMatchesByteOracle pins the plane probe and the word-parallel
// removal test to the byte-probe oracle: identical dirty lists over 500
// random swaps (a third of them reverted) on a jellyfish of 4096
// vertices and degree 16 (a region of at most 64 lanes, one batch), a
// degree-24 jellyfish (up to 96 lanes, two batches), a union of cycles
// (unreachable lanes in most sources) and PolarStar-IQ(5,4), each at pool
// widths 1 and 4.
func TestDirtyMatchesByteOracle(t *testing.T) {
	jf4k, err := topo.NewJellyfish(4096, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	jf24, err := topo.NewJellyfish(600, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	cycles := graph.NewBuilder("30xC8", 240)
	for c := 0; c < 240; c += 8 {
		for i := 0; i < 8; i++ {
			cycles.AddEdge(c+i, c+(i+1)%8)
		}
	}
	ps, err := topo.NewPolarStar(5, 4, topo.KindIQ)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		g            *graph.Graph
		multiBatch   bool // some region needs a second 64-lane batch
		disconnected bool // some swap is probed on a disconnected graph
	}{
		{"Jellyfish4096x16", jf4k, false, false},
		{"Jellyfish600x24", jf24, true, false},
		{"Cycles", cycles.Build(), false, true},
		{"PolarStarIQ54", ps.G, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			widths := []int{1, 4}
			ds := make([]*graph.DeltaStats, len(widths))
			for i, w := range widths {
				ds[i] = graph.NewDeltaStatsPool(tc.g, graph.NewEvalPool(w))
			}
			rng := rand.New(rand.NewSource(3))
			var maxRegion, disconnected int
			for i := 0; i < 500; i++ {
				g := ds[0].Graph()
				sw := validSwap(t, g, rng)
				want, region := oracleDirty(g, sw)
				maxRegion = max(maxRegion, region)
				if !ds[0].Stats().Connected {
					disconnected++
				}
				revert := rng.Intn(3) == 0
				for j, d := range ds {
					d.Apply(sw)
					if got := d.Dirty(); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
						t.Fatalf("swap %d %v at width %d: dirty %v, oracle %v", i, sw, widths[j], got, want)
					}
					if revert {
						d.Revert()
					}
				}
			}
			if (maxRegion > 64) != tc.multiBatch || (disconnected > 0) != tc.disconnected {
				t.Errorf("regions up to %d lanes and %d of 500 swaps on a disconnected graph: not the case's coverage",
					maxRegion, disconnected)
			}
		})
	}
}
