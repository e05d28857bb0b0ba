package sim

import (
	"math/rand"
	"sync"
	"testing"

	"polarstar/internal/route"
)

// fuzzSpecNames are the scaled-down registered topologies the path fuzz
// sweeps: every routing engine family — analytic PolarStar (IQ and
// Paley), multi-path tables (Bundlefly, Spectralfly), and the dimension-
// order/group routers (HyperX, Dragonfly, Megafly, Fat-tree).
var fuzzSpecNames = []string{
	"ps-iq-small", "ps-pal-small", "bf-small", "hx-small",
	"df-small", "sf-small", "mf-small", "ft-small",
}

var (
	fuzzSpecsOnce sync.Once
	fuzzSpecs     map[string]*Spec
)

func fuzzSpec(name string) *Spec {
	fuzzSpecsOnce.Do(func() {
		fuzzSpecs = map[string]*Spec{}
		for _, n := range fuzzSpecNames {
			fuzzSpecs[n] = must(NewSpec(n))
		}
	})
	return fuzzSpecs[name]
}

// checkPath asserts the path-validity contract for one (src, dst) query:
// correct endpoints, edge-valid hops, loop-free, exactly Dist hops, and
// within the spec's minimal-hop bound.
func checkPath(t *testing.T, spec *Spec, path []int, src, dst int) {
	t.Helper()
	if src == dst {
		if len(path) != 0 {
			t.Fatalf("%s: src==dst=%d returned non-empty path %v", spec.Name, src, path)
		}
		return
	}
	if len(path) < 2 {
		t.Fatalf("%s: (%d,%d) returned truncated path %v", spec.Name, src, dst, path)
	}
	if path[0] != src || path[len(path)-1] != dst {
		t.Fatalf("%s: path %v does not join (%d,%d)", spec.Name, path, src, dst)
	}
	seen := map[int]bool{}
	for i, v := range path {
		if v < 0 || v >= spec.Graph.N() {
			t.Fatalf("%s: path %v leaves the vertex set at position %d", spec.Name, path, i)
		}
		if seen[v] {
			t.Fatalf("%s: path %v revisits vertex %d (routing loop)", spec.Name, path, v)
		}
		seen[v] = true
		if i+1 < len(path) && !spec.Graph.HasEdge(v, path[i+1]) {
			t.Fatalf("%s: path %v uses missing edge (%d,%d)", spec.Name, path, v, path[i+1])
		}
	}
	if !route.PathValid(spec.Graph, path) {
		t.Fatalf("%s: PathValid rejects %v", spec.Name, path)
	}
	if d := spec.MinEngine.Dist(src, dst); len(path)-1 != d {
		t.Fatalf("%s: path %v has %d hops, engine Dist says %d", spec.Name, path, len(path)-1, d)
	}
	if len(path)-1 > spec.MinHops {
		t.Fatalf("%s: path %v exceeds the minimal-hop bound %d", spec.Name, path, spec.MinHops)
	}
}

// routeDomain returns the vertices routing is defined between: the host
// routers when the spec restricts endpoints (Megafly/Fat-tree leaves,
// where MinHops is also scoped), otherwise every router.
func routeDomain(spec *Spec) []int {
	if spec.Hosts != nil {
		return spec.Hosts
	}
	all := make([]int, spec.Graph.N())
	for i := range all {
		all[i] = i
	}
	return all
}

// FuzzRoutePaths drives every registered routing engine with arbitrary
// (topology, src, dst, seed) tuples and asserts the path contract, plus
// the Route/AppendPath equivalence under equal seeds.
func FuzzRoutePaths(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint16(1), int64(1))
	f.Add(uint8(3), uint16(17), uint16(250), int64(42))
	f.Add(uint8(7), uint16(500), uint16(500), int64(-9))
	f.Fuzz(func(t *testing.T, specIdx uint8, srcRaw, dstRaw uint16, seed int64) {
		spec := fuzzSpec(fuzzSpecNames[int(specIdx)%len(fuzzSpecNames)])
		dom := routeDomain(spec)
		src, dst := dom[int(srcRaw)%len(dom)], dom[int(dstRaw)%len(dom)]
		path := route.Path(spec.MinEngine, src, dst, rand.New(rand.NewSource(seed)))
		checkPath(t, spec, path, src, dst)
		// AppendPath with an equally seeded RNG must reproduce Route
		// exactly (the allocation-free hot path is the same function).
		buf := spec.MinEngine.AppendPath(make([]int, 0, 8), src, dst, rand.New(rand.NewSource(seed)))
		if len(buf) != len(path) {
			t.Fatalf("%s: AppendPath %v differs from Route %v", spec.Name, buf, path)
		}
		for i := range buf {
			if buf[i] != path[i] {
				t.Fatalf("%s: AppendPath %v differs from Route %v at hop %d", spec.Name, buf, path, i)
			}
		}
	})
}

// TestRoutePathSweep is the deterministic companion of FuzzRoutePaths:
// a seeded random-pair sweep across every registered topology, so the
// contract is exercised on every `go test` run, not only under -fuzz.
func TestRoutePathSweep(t *testing.T) {
	for _, name := range fuzzSpecNames {
		spec := fuzzSpec(name)
		rng := rand.New(rand.NewSource(99))
		dom := routeDomain(spec)
		for i := 0; i < 500; i++ {
			src, dst := dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))]
			path := route.Path(spec.MinEngine, src, dst, rng)
			checkPath(t, spec, path, src, dst)
		}
	}
}
