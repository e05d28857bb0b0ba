package route

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/topo"
)

// TestOnDemandTableConcurrent: a NewTableOnDemand table whose first use
// comes from several goroutines at once, each entering through a
// different reader, ends up with exactly the slab of an eager NewTable,
// and every goroutine's answers match the eager table's.
// Run it under -race -count=10 (the CI race step does).
func TestOnDemandTableConcurrent(t *testing.T) {
	bf, err := topo.NewBundlefly(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{bf.G, randomTableGraph(150, 300, 3), topo.MustNewPolarStar(4, 3, topo.KindIQ).G}
	for _, g := range graphs {
		for _, mode := range []TableMode{SinglePath, AllMinPaths} {
			eager := NewTable(g, mode)
			lazy := NewTableOnDemand(g, mode)
			if lazy.dist != nil || lazy.masks != nil {
				t.Fatalf("%v: NewTableOnDemand filled the table at construction", g)
			}
			n := g.N()
			readers := []func(rng *rand.Rand) bool{
				func(rng *rand.Rand) bool { return lazy.MaxDist() == eager.MaxDist() },
				func(rng *rand.Rand) bool { return lazy.MemBytes() == eager.MemBytes() },
				func(rng *rand.Rand) bool { return lazy.NextHopEntries() == eager.NextHopEntries() },
				func(rng *rand.Rand) bool { return bytes.Equal(lazy.Clone().Slab(), eager.Slab()) },
				func(rng *rand.Rand) bool {
					for i := 0; i < 200; i++ {
						u, v := rng.Intn(n), rng.Intn(n)
						if lazy.Dist(u, v) != eager.Dist(u, v) {
							return false
						}
					}
					return true
				},
				func(rng *rand.Rand) bool {
					// Same seed, same draws: the paths agree hop by hop.
					seed := rng.Int63()
					r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					var a, b []int
					for i := 0; i < 200; i++ {
						u, v := rng.Intn(n), rng.Intn(n)
						a = lazy.AppendPath(a[:0], u, v, r1)
						b = eager.AppendPath(b[:0], u, v, r2)
						if !slices.Equal(a, b) {
							return false
						}
					}
					return true
				},
			}
			var wg sync.WaitGroup
			ok := make([]bool, 2*len(readers))
			for i := range ok {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ok[i] = readers[i%len(readers)](rand.New(rand.NewSource(int64(i))))
				}(i)
			}
			wg.Wait()
			for i, good := range ok {
				if !good {
					t.Errorf("%v mode %d: reader %d disagrees with the eager table", g, mode, i%len(readers))
				}
			}
			if !bytes.Equal(lazy.Slab(), eager.Slab()) || lazy.mb != eager.mb {
				t.Errorf("%v mode %d: on-demand slab differs from NewTable's", g, mode)
			}
		}
	}
}
