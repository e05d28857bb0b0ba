package route

import (
	"math/rand"
	"testing"

	"polarstar/internal/topo"
)

// appendPathAllocs measures steady-state heap allocations of AppendPath
// over a mix of vertex pairs, after warming the buffer to its high-water
// capacity.
func appendPathAllocs(t *testing.T, e Engine, n int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	buf := make([]int, 0, 64)
	pair := 0
	return testing.AllocsPerRun(200, func() {
		src := pair % n
		dst := (pair*7 + 13) % n
		pair++
		buf = e.AppendPath(buf[:0], src, dst, rng)
	})
}

// TestAppendPathZeroAllocs is the hot-path regression guard: routing a
// packet through the analytic PolarStar router or a table engine must not
// touch the heap.
func TestAppendPathZeroAllocs(t *testing.T) {
	ps, err := topo.NewPolarStar(5, 4, topo.KindIQ)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]Engine{
		"polarstar": NewPolarStar(ps),
		"table-mp":  NewTable(ps.G, AllMinPaths),
		"table-sp":  NewTable(ps.G, SinglePath),
	}
	if hx, err := topo.NewHyperX(4, 4, 4); err == nil {
		engines["hyperx"] = NewHyperX(hx)
	}
	if bf, err := topo.NewBundlefly(5, 2); err == nil {
		engines["bundlefly"] = NewBundlefly(bf)
	}
	for name, e := range engines {
		n := ps.G.N()
		if name == "hyperx" {
			n = 64
		}
		if name == "bundlefly" {
			n = 150
		}
		if allocs := appendPathAllocs(t, e, n); allocs != 0 {
			t.Errorf("%s AppendPath allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}

// TestAppendViaZeroAllocs covers the Valiant two-phase construction used
// by UGAL.
func TestAppendViaZeroAllocs(t *testing.T) {
	ps, err := topo.NewPolarStar(5, 4, topo.KindIQ)
	if err != nil {
		t.Fatal(err)
	}
	v := NewValiant(NewPolarStar(ps), ps.G.N(), 4)
	rng := rand.New(rand.NewSource(1))
	buf := make([]int, 0, 64)
	pair := 0
	n := ps.G.N()
	allocs := testing.AllocsPerRun(200, func() {
		src := pair % n
		mid := (pair*5 + 7) % n
		dst := (pair*7 + 13) % n
		pair++
		buf = v.AppendVia(buf[:0], src, mid, dst, rng)
	})
	if allocs != 0 {
		t.Errorf("AppendVia allocates %.1f objects per call, want 0", allocs)
	}
}

// TestPolarStarDistZeroAllocs pins Dist to its stack buffer: traffic
// patterns call it for every endpoint pair they weigh.
func TestPolarStarDistZeroAllocs(t *testing.T) {
	ps, err := topo.NewPolarStar(5, 4, topo.KindIQ)
	if err != nil {
		t.Fatal(err)
	}
	r := NewPolarStar(ps)
	n := ps.G.N()
	pair, sum := 0, 0
	allocs := testing.AllocsPerRun(200, func() {
		sum += r.Dist(pair%n, (pair*7+13)%n)
		pair++
	})
	if allocs != 0 {
		t.Errorf("Dist allocates %.1f objects per call, want 0", allocs)
	}
	if sum == 0 {
		t.Error("every Dist was 0")
	}
}
