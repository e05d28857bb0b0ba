package topo

import (
	"runtime"
	"sync"
	"testing"
)

// TestOnDemandCommonNeighborConcurrent: the first CommonNeighbor calls on
// a fresh ER come from several goroutines at once; each sees the
// analytic answer for every pair, and the table they share is the one
// commonNeighborSlow gives. Run it under -race -count=10 (the CI race
// step does).
func TestOnDemandCommonNeighborConcurrent(t *testing.T) {
	for _, q := range []int{5, 7, 11} {
		er := must(NewER(q))
		if er.cn != nil {
			t.Fatalf("ER_%d: NewER filled the common-neighbour table", q)
		}
		n := er.N()
		const workers = 6
		bad := make([]int, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each worker starts at a different row so first uses
				// overlap with the fill from every direction.
				for i := 0; i < n; i++ {
					u := (i + w*n/workers) % n
					for v := 0; v < n; v++ {
						if er.CommonNeighbor(u, v) != er.commonNeighborSlow(u, v) {
							bad[w]++
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for w, b := range bad {
			if b != 0 {
				t.Errorf("ER_%d worker %d: %d pairs differ from commonNeighborSlow", q, w, b)
			}
		}
		if len(er.cn) != n*n {
			t.Errorf("ER_%d: no %d-entry table after first use", q, n*n)
		}
	}
}

// TestOnDemandERAllocs: NewER(23), the paper-scale structure graph,
// allocates less than its n×n common-neighbour table would take, so
// constructing a PolarStar that never routes stays free of it.
func TestOnDemandERAllocs(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	er := must(NewER(23))
	runtime.ReadMemStats(&m1)
	n := er.N()
	grid := uint64(n * n * 4)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= grid {
		t.Errorf("NewER(23) allocated %d B, not less than its %d-B common-neighbour grid", got, grid)
	} else {
		t.Logf("NewER(23) allocated %d B (grid %d B)", got, grid)
	}
	if er.cn != nil {
		t.Error("NewER(23) filled the common-neighbour table")
	}
}
