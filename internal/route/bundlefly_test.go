package route

import (
	"math/rand"
	"testing"

	"polarstar/internal/topo"
)

// TestBundleflyAnalyticMinimal: the analytic Bundlefly router must return
// valid, exactly-minimal paths for every ordered pair, matching BFS.
func TestBundleflyAnalyticMinimal(t *testing.T) {
	for _, c := range []struct{ q, d int }{{4, 2}, {5, 2}} {
		bf := topo.MustNewBundlefly(c.q, c.d)
		r := NewBundlefly(bf)
		truth := NewTable(bf.G, SinglePath)
		n := bf.G.N()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				path := Path(r, src, dst, nil)
				if src == dst {
					if path != nil {
						t.Fatalf("self path not nil")
					}
					continue
				}
				if !PathValid(bf.G, path) {
					t.Fatalf("q=%d d'=%d: invalid path %v (src=%d dst=%d)", c.q, c.d, path, src, dst)
				}
				if path[0] != src || path[len(path)-1] != dst {
					t.Fatalf("wrong endpoints %v", path)
				}
				if got, want := len(path)-1, truth.Dist(src, dst); got != want {
					t.Fatalf("q=%d d'=%d: src=%d dst=%d analytic %d != BFS %d (%v)",
						c.q, c.d, src, dst, got, want, path)
				}
			}
		}
	}
}

func TestBundleflyAnalyticSpotCheckTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bf := topo.MustNewBundlefly(7, 4) // the 882-router Table 3 config
	r := NewBundlefly(bf)
	truth := NewTable(bf.G, SinglePath)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		src, dst := rng.Intn(bf.G.N()), rng.Intn(bf.G.N())
		if src == dst {
			continue
		}
		path := Path(r, src, dst, nil)
		if !PathValid(bf.G, path) || len(path)-1 != truth.Dist(src, dst) {
			t.Fatalf("mismatch at src=%d dst=%d: %v (want %d)", src, dst, path, truth.Dist(src, dst))
		}
	}
}

// TestBundleflyPathDiversityAvailable: unlike PolarStar (whose minimal
// paths are near-unique), Bundlefly pairs at supernode distance 2 can
// have several minimal paths (multiple common MMS neighbors with a
// matching crossing composition), which is the diversity the paper's
// all-minpath tables exploit. Verify the table router actually samples
// more than one minimal path for some pair.
func TestBundleflyPathDiversityAvailable(t *testing.T) {
	bf := topo.MustNewBundlefly(5, 2)
	multi := NewTable(bf.G, AllMinPaths)
	rng := rand.New(rand.NewSource(5))
	diverse := false
	for src := 0; src < bf.G.N() && !diverse; src += 17 {
		for dst := 0; dst < bf.G.N() && !diverse; dst += 13 {
			if src == dst || multi.Dist(src, dst) < 2 {
				continue
			}
			seen := map[int]bool{}
			for k := 0; k < 32; k++ {
				seen[Path(multi, src, dst, rng)[1]] = true
			}
			diverse = len(seen) > 1
		}
	}
	if !diverse {
		t.Error("no minimal path diversity found on Bundlefly")
	}
}
