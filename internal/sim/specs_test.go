package sim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"polarstar/internal/route"
)

// TestTable3Configurations verifies that the paper-scale specs reproduce
// the §9.1 Table 3 rows: router counts, network radix and endpoint
// counts (see EXPERIMENTS.md E6 for the PS-Pal 993→949 note).
func TestTable3Configurations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cases := []struct {
		name      string
		routers   int
		radix     int // switch-to-switch ports (max degree)
		endpoints int
	}{
		{"ps-iq", 1064, 15, 5320},
		{"ps-pal", 949, 15, 4745}, // paper prints 993/4965; see E6 note
		{"bf", 882, 15, 4410},
		{"hx", 648, 23, 5184},
		{"df", 876, 17, 5256},
		{"sf", 1092, 24, 8736},
		{"mf", 1040, 16, 4160},
		{"ft", 972, 36, 5832},
	}
	for _, c := range cases {
		spec, err := NewSpec(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if spec.Graph.N() != c.routers {
			t.Errorf("%s routers = %d, want %d", c.name, spec.Graph.N(), c.routers)
		}
		if got := spec.Graph.MaxDegree(); got > c.radix {
			t.Errorf("%s max switch degree = %d, want <= %d", c.name, got, c.radix)
		}
		if spec.Endpoints() != c.endpoints {
			t.Errorf("%s endpoints = %d, want %d", c.name, spec.Endpoints(), c.endpoints)
		}
	}
	// Fat-tree radix: 2p total ports on middle routers (18 up + 18 down).
	ft := must(NewSpec("ft"))
	if ft.Graph.MaxDegree() != 36 {
		t.Errorf("ft max degree = %d, want 36", ft.Graph.MaxDegree())
	}
}

func TestNewSpecUnknown(t *testing.T) {
	if _, err := NewSpec("nope"); err == nil {
		t.Error("unknown spec should error")
	}
	if !KnownSpec("ps-iq-small") || KnownSpec("nope") {
		t.Error("KnownSpec misclassified")
	}
}

func TestSpecDiametersAtMost3ForDirectDiam3Topologies(t *testing.T) {
	for _, name := range []string{"ps-iq-small", "ps-pal-small", "bf-small", "hx-small", "df-small"} {
		spec := must(NewSpec(name))
		if d := spec.Graph.Diameter(); d > int32(spec.MinHops) {
			t.Errorf("%s diameter %d exceeds MinHops %d", name, d, spec.MinHops)
		}
	}
}

// TestTableSpecMinHopsIsDiameter: every table-routed spec (-small and
// Table 3) bounds its minimal paths by the graph's diameter, which
// tableSpec takes from the bit-parallel all-pairs pass so that no table
// is built; it must equal the eager table's MaxDist.
func TestTableSpecMinHopsIsDiameter(t *testing.T) {
	checked := 0
	for name := range specRegistry {
		if !strings.HasSuffix(name, "-small") && !slices.Contains(Table3Names, name) {
			continue
		}
		spec := must(NewSpec(name))
		if _, ok := spec.MinEngine.(*route.Table); !ok {
			continue
		}
		checked++
		if d := spec.Graph.Diameter(); spec.MinHops != int(d) {
			t.Errorf("%s: MinHops %d, diameter %d", name, spec.MinHops, d)
		}
		if d := route.NewTable(spec.Graph, route.AllMinPaths).MaxDist(); spec.MinHops != d {
			t.Errorf("%s: MinHops %d, table MaxDist %d", name, spec.MinHops, d)
		}
	}
	if checked < 6 { // bf, sf and the -small bf, sf, pf, slimfly
		t.Errorf("only %d table-routed specs checked", checked)
	}
}

// TestDegradedSpecSimulates runs traffic on a PolarStar with 10% of its
// links removed: an extension experiment combining the §11.2 fault model
// with the §9 simulator. While the network stays connected, everything
// must still be delivered (over longer paths).
func TestDegradedSpecSimulates(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	edges := spec.Graph.Edges()
	rng := rand.New(rand.NewSource(21))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	removed := edges[:len(edges)/10]
	deg := spec.DegradedInto(removed, nil)
	if deg.Graph.M() != spec.Graph.M()-len(removed) {
		t.Fatalf("degraded edges = %d", deg.Graph.M())
	}
	if !deg.Graph.IsConnected(nil) {
		t.Fatal("test premise broken: degraded network disconnected")
	}
	p := testParams(21)
	p.Warmup, p.Measure, p.Drain = 300, 600, 3000
	pattern, err := deg.Pattern("uniform", 21)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(p, deg.Graph, deg.Config(), deg.MinRouting(), pattern)
	res := eng.Run(0.1)
	if res.DeliveredFrac < 0.99 {
		t.Errorf("degraded delivery %.3f", res.DeliveredFrac)
	}
}

// TestDegradedIntoReusesSlab: rebuilding routing tables across repeated
// degradations through DegradedInto must give exactly the same tables as
// fresh construction — while reusing one n×n distance slab.
func TestDegradedIntoReusesSlab(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	edges := spec.Graph.Edges()
	rng := rand.New(rand.NewSource(33))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	var slab []uint8
	var prevSlab *uint8
	for _, k := range []int{10, 40, 80} {
		deg := spec.DegradedInto(edges[:k], slab)
		fresh := spec.DegradedInto(edges[:k], nil)
		for src := 0; src < spec.Graph.N(); src += 17 {
			for dst := 0; dst < spec.Graph.N(); dst += 13 {
				if a, b := deg.MinEngine.Dist(src, dst), fresh.MinEngine.Dist(src, dst); a != b {
					t.Fatalf("k=%d: dist(%d,%d) = %d with reused slab, %d fresh", k, src, dst, a, b)
				}
			}
		}
		slab = deg.TableSlab()
		if slab == nil {
			t.Fatal("degraded spec did not expose a table slab")
		}
		if prevSlab != nil && &slab[0] != prevSlab {
			t.Error("slab was reallocated across degradations")
		}
		prevSlab = &slab[0]
	}
}

// TestDiameter2ExtensionSpecs: the PolarFly and SlimFly diameter-2
// extension specs simulate correctly.
func TestDiameter2ExtensionSpecs(t *testing.T) {
	for _, name := range []string{"pf-small", "slimfly-small"} {
		spec := must(NewSpec(name))
		if d := spec.Graph.Diameter(); d != 2 {
			t.Errorf("%s diameter = %d, want 2", name, d)
		}
		p := testParams(22)
		p.Warmup, p.Measure, p.Drain = 200, 400, 1500
		pattern, _ := spec.Pattern("uniform", 22)
		eng := NewEngine(p, spec.Graph, spec.Config(), spec.MinRouting(), pattern)
		if res := eng.Run(0.1); res.DeliveredFrac < 0.99 {
			t.Errorf("%s delivery %.3f", name, res.DeliveredFrac)
		}
	}
}
