package polarstar_test

import (
	"math/rand"

	"polarstar/internal/route"
	"polarstar/internal/topo"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func newTableEngine(ps *topo.PolarStar) route.Engine {
	return route.NewTable(ps.G, route.AllMinPaths)
}

// must returns v and panics on err; test set-up here only builds valid
// instances.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
