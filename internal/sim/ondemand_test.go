package sim

import (
	"runtime"
	"testing"

	"polarstar/internal/route"
)

// TestOnDemandSpecAllocs: constructing the table-routed Table 3 specs —
// bf and sf through tableSpec, df and mf through their routers' helper
// tables — allocates less than one all-minpath table of the spec's
// graph, so the specs structural tools build and never route on carry
// no routing table. The first route builds it, and it is the eager one.
func TestOnDemandSpecAllocs(t *testing.T) {
	for _, name := range []string{"bf", "sf", "df", "mf"} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		spec := must(NewSpec(name))
		runtime.ReadMemStats(&m1)
		g := spec.Graph
		n, mb := g.N(), (g.MaxDegree()+7)/8
		table := uint64(n * n * (1 + mb))
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= table {
			t.Errorf("NewSpec(%s) allocated %d B, not less than one %d-B table", name, got, table)
		} else {
			t.Logf("NewSpec(%s) allocated %d B (table %d B)", name, got, table)
		}
		eager := route.NewTable(g, route.AllMinPaths)
		for u := 0; u < n; u += 13 {
			for v := 0; v < n; v += 11 {
				if got, want := spec.MinEngine.Dist(u, v), eager.Dist(u, v); got != want {
					t.Fatalf("%s: Dist(%d,%d) = %d, eager table %d", name, u, v, got, want)
				}
			}
		}
	}
}
