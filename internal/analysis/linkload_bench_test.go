package analysis

import (
	"testing"

	"polarstar/internal/sim"
)

func BenchmarkComputeLinkLoadsPSIQSmall(b *testing.B) {
	spec := must(sim.NewSpec("ps-iq-small"))
	pattern, _ := spec.Pattern("uniform", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLinkLoads(spec.Graph, spec.MinEngine, spec.Config(), pattern, 30, 1)
	}
}
