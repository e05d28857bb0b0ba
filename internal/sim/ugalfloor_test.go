package sim

import (
	"math/rand"
	"slices"
	"testing"

	"polarstar/internal/graph"
)

// ugalRouters returns the routers UGAL paths join: the endpoint hosts and
// the Valiant intermediates (every router when the spec leaves both nil).
func ugalRouters(spec *Spec) []int {
	if spec.Hosts == nil || spec.UGALMids == nil {
		n := spec.Graph.N()
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	rs := slices.Concat(spec.Hosts, spec.UGALMids)
	slices.Sort(rs)
	return slices.Compact(rs)
}

// TestUGALFloorMinPathsAreShortest checks the fact UGAL's floor exit rests
// on: every spec's MinEngine returns shortest paths, so a Valiant
// candidate through any intermediate has at least the minimal path's hop
// count. All pairs of the routers UGAL paths join on every small spec;
// 2000 seeded pairs (40 sources × 50 destinations) on every Table 3 spec.
func TestUGALFloorMinPathsAreShortest(t *testing.T) {
	var names []string
	names = append(names, smallSpecNames...)
	names = append(names, Table3Names...)
	for _, name := range names {
		spec := must(NewSpec(name))
		rs := ugalRouters(spec)
		rng := rand.New(rand.NewSource(41))
		srcs, dsts := rs, rs
		if !slices.Contains(smallSpecNames, name) {
			srcs, dsts = make([]int, 40), make([]int, 50)
			for i := range srcs {
				srcs[i] = rs[rng.Intn(len(rs))]
			}
			for i := range dsts {
				dsts[i] = rs[rng.Intn(len(rs))]
			}
		}
		var dist []int32
		var scratch graph.BFSScratch
		var buf []int
		pairs := 0
		for _, s := range srcs {
			dist = spec.Graph.BFSDistances(s, dist, &scratch)
			for _, d := range dsts {
				if s == d || dist[d] == graph.Unreachable {
					continue
				}
				buf = spec.MinEngine.AppendPath(buf[:0], s, d, rng)
				if got := len(buf) - 1; got != int(dist[d]) {
					t.Fatalf("%s: MinEngine path %d→%d has %d hops, BFS distance %d", name, s, d, got, dist[d])
				}
				pairs++
			}
		}
		if pairs == 0 {
			t.Fatalf("%s: no pair checked", name)
		}
	}
}

// ugalSampled is UGAL.Path as it was before the floor exit: every packet
// draws and scores all its Valiant samples.
func ugalSampled(u *UGAL, src, dst int, occ OccFn, rng *rand.Rand) []int {
	best := u.Min.AppendPath(nil, src, dst, rng)
	bestScore := u.score(best, occ)
	bestLive := pathLive(best, u.Live)
	for s := 0; s < u.Samples; s++ {
		var mid int
		if u.Mids != nil {
			mid = u.Mids[rng.Intn(len(u.Mids))]
		} else {
			mid = rng.Intn(u.N)
		}
		if mid == src || mid == dst {
			continue
		}
		cand := u.Min.AppendPath(nil, src, mid, rng)
		n1 := len(cand)
		cand = u.Min.AppendPath(cand, mid, dst, rng)
		if n1 == 0 || len(cand) == n1 {
			continue
		}
		cand = slices.Delete(cand, n1, n1+1)
		candLive := pathLive(cand, u.Live)
		if candLive != bestLive {
			if !candLive {
				continue
			}
			best, bestScore, bestLive = cand, u.score(cand, occ), true
			continue
		}
		if sc := u.score(cand, occ); sc < bestScore {
			best, bestScore = cand, sc
		}
	}
	if u.Live != nil && !bestLive {
		return nil
	}
	return best
}

// TestUGALFloorMatchesSampling runs UGAL.Path against ugalSampled with the
// same per-packet seed, for UGAL-L and UGAL-G, under random occupancy
// where every queue holds flits (the exit never fires) and where about
// half the queues are empty (it fires often), with and without a liveness
// filter (which turns the exit off). The chosen paths must be identical.
// Under -race, 500 pairs per combination instead of 3000.
func TestUGALFloorMatchesSampling(t *testing.T) {
	pairs := int64(3000)
	if raceEnabled {
		pairs = 500
	}
	for _, name := range smallSpecNames {
		spec := must(NewSpec(name))
		rs := ugalRouters(spec)
		n := spec.Graph.N()
		for _, global := range []bool{false, true} {
			for _, emptyFrac := range []int{0, 50} {
				for _, faulty := range []bool{false, true} {
					u := spec.UGALRouting(4).(*UGAL)
					u.Global = global
					rng := rand.New(rand.NewSource(int64(7 + emptyFrac)))
					occs := make([]int, n*n)
					for i := range occs {
						if rng.Intn(100) >= emptyFrac {
							occs[i] = 1 + rng.Intn(40)
						}
					}
					occ := func(a, b int) int { return occs[a*n+b] }
					if faulty {
						dead := make([]bool, n*n)
						for i := range dead {
							dead[i] = rng.Intn(100) < 3
						}
						u.Live = func(a, b int) bool { return !dead[a*n+b] }
					}
					// The engine's per-packet route stream: seeded from the
					// run seed and the packet counter.
					var stream splitmix
					pktRNG := rand.New(&stream)
					floor := 0
					for i := int64(0); i < pairs; i++ {
						src, dst := rs[rng.Intn(len(rs))], rs[rng.Intn(len(rs))]
						if src == dst {
							continue
						}
						stream.seed(5, i)
						want := ugalSampled(u, src, dst, occ, pktRNG)
						stream.seed(5, i)
						got := u.Path(nil, src, dst, occ, pktRNG)
						if !slices.Equal(got, want) {
							t.Fatalf("%s global=%v empty=%d%% live=%v: %d→%d: Path %v, sampling %v",
								name, global, emptyFrac, faulty, src, dst, got, want)
						}
						stream.seed(5, i)
						if min := u.Min.AppendPath(nil, src, dst, pktRNG); u.score(min, occ) <= u.PktSize*(len(min)-1) {
							floor++
						}
					}
					if emptyFrac > 0 && floor == 0 {
						t.Errorf("%s global=%v: no pair scored at the floor", name, global)
					}
				}
			}
		}
	}
}
