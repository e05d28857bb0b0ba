package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestDeltaStatsDistsGrowth pins the probe-buffer memory contract:
// DistsBytes tracks the high-water of n·|region| (so it is a pure
// function of the swap sequence, independent of allocation history),
// while the plane buffer holds one 8n-word block per 64-lane batch and
// its backing array never shrinks.
func TestDeltaStatsDistsGrowth(t *testing.T) {
	// Degree-4 circulant: enough structure for plentiful valid swaps,
	// region sizes that vary with neighborhood overlap.
	b := NewBuilder("circ64", 64)
	for i := 0; i < 64; i++ {
		b.AddEdge(i, (i+1)%64)
		b.AddEdge(i, (i+2)%64)
	}
	d := NewDeltaStats(b.Build())
	if d.DistsBytes != 0 {
		t.Fatalf("DistsBytes %d before any Apply, want 0", d.DistsBytes)
	}
	rng := rand.New(rand.NewSource(7))
	edges := d.Graph().Edges()
	prevCap := 0
	var hwm int64
	applied := 0
	for try := 0; try < 20000 && applied < 60; try++ {
		e1 := edges[rng.Intn(len(edges))]
		e2 := edges[rng.Intn(len(edges))]
		sw := Swap{A: int32(e1[0]), B: int32(e1[1]), C: int32(e2[0]), D: int32(e2[1])}
		if !d.CanSwap(sw) {
			continue
		}
		d.Apply(sw)
		applied++
		edges = d.Graph().Edges()
		need := int64(d.n * len(d.region))
		if need > hwm {
			hwm = need
		}
		if d.DistsBytes != hwm {
			t.Fatalf("apply %d: DistsBytes %d, want high-water %d", applied, d.DistsBytes, hwm)
		}
		if want := (len(d.region) + 63) / 64 * 8 * d.n; len(d.planes) != want {
			t.Fatalf("apply %d: %d plane words for %d region lanes, want %d", applied, len(d.planes), len(d.region), want)
		}
		c := cap(d.planes)
		if c < prevCap {
			t.Fatalf("apply %d: probe capacity shrank %d -> %d", applied, prevCap, c)
		}
		prevCap = c
	}
	if applied < 60 {
		t.Fatalf("only %d valid swaps found", applied)
	}
	if hwm == 0 {
		t.Fatal("probe buffer never used")
	}
}

// deltaFields is the state of d that a fresh NewDeltaStatsPool of the
// same graph determines: the graph, the rows at their stride, the
// aggregates, the region index, the pool, the telemetry and whether
// there is an Apply to revert. Per-swap scratch buffers are left out.
func deltaFields(d *DeltaStats) any {
	return struct {
		G                            Graph
		N, Stride                    int
		Rows, Ecc                    []int32
		SrcSum, SrcReached           []int64
		Sum, Pairs                   int64
		Hist, EccCnt                 []int64
		RegionIdx                    []int32
		Pool                         *EvalPool
		Undo                         bool
		Evals, FullRebuilds, Resyncs int64
		DirtyTotal, DistsBytes       int64
		LastDirty                    int
	}{*d.g, d.n, d.stride, d.rows, d.ecc, d.srcSum, d.srcReached, d.sum, d.pairs, d.hist, d.eccCnt,
		d.regionIdx, d.pool, d.undo.valid, d.Evals, d.FullRebuilds, d.Resyncs, d.DirtyTotal, d.DistsBytes, d.LastDirty}
}

// TestCloneMatchesRebuild: after random walks (Applies, Reverts and
// Resyncs on a random graph, and on two paths whose swap grows the row
// stride and whose Revert leaves the grown stride behind), Clone equals
// NewDeltaStatsPool of the current graph field by field, and the clone
// owns its graph: applying a swap to it leaves the source untouched.
func TestCloneMatchesRebuild(t *testing.T) {
	pool := NewEvalPool(2)
	check := func(what string, d *DeltaStats) {
		t.Helper()
		c := d.Clone(pool)
		if want := NewDeltaStatsPool(d.Graph(), pool); !reflect.DeepEqual(deltaFields(c), deltaFields(want)) {
			t.Fatalf("%s: clone %+v, rebuild %+v", what, deltaFields(c), deltaFields(want))
		}
		before := d.Graph().Edges()
		c.Apply(randomValidSwap(t, c.Graph(), rand.New(rand.NewSource(1))))
		if !reflect.DeepEqual(d.Graph().Edges(), before) {
			t.Fatalf("%s: a swap on the clone changed the source graph", what)
		}
	}

	d := NewDeltaStats(gnp(150, 0.06, 4))
	check("fresh", d)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 120; i++ {
		d.Apply(randomValidSwap(t, d.Graph(), rng))
		if rng.Intn(3) == 0 {
			d.Revert()
		}
		if i%40 == 39 {
			d.Resync()
		}
		if i%10 == 9 {
			check("random walk", d)
		}
	}

	// Two P8s: the cross swap makes a 14-vertex path, eccentricity 13,
	// which a stride of 8 cannot hold.
	b := NewBuilder("2p8", 16)
	for i := 0; i+1 < 8; i++ {
		b.AddEdge(i, i+1)
		b.AddEdge(8+i, 8+i+1)
	}
	p := NewDeltaStats(b.Build())
	p.Apply(Swap{A: 0, B: 1, C: 8, D: 9})
	if p.stride != 16 {
		t.Fatalf("stride %d after the growing swap, want 16", p.stride)
	}
	check("grown", p)
	p.Revert()
	if p.stride != 16 || p.Stats().Diameter >= 8 {
		t.Fatalf("after Revert: stride %d, diameter %d; want 16 and below 8", p.stride, p.Stats().Diameter)
	}
	check("grown and shrunk back", p)
}
