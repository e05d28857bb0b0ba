package sim

import (
	"math/rand"
	"slices"
	"testing"

	"polarstar/internal/graph"
	"polarstar/internal/route"
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

// unroutableFrom hides every path out of one router, as a disconnected
// graph would: UGAL's minimal incumbent is then empty.
type unroutableFrom struct {
	route.Engine
	src int
}

func (e unroutableFrom) AppendPath(buf []int, src, dst int, rng *rand.Rand) []int {
	if src == e.src {
		return buf
	}
	return e.Engine.AppendPath(buf, src, dst, rng)
}

// TestUGALFloorMatchesSampling runs UGAL.Path against ugalSampled with the
// same per-packet seed, for UGAL-L and UGAL-G, under random occupancy
// where every queue holds flits (the exit never fires) and where about
// half the queues are empty (it fires often), with and without a liveness
// filter (3 % of the links and two routers dead, and no path out of a
// third). The chosen paths must be identical. Under the filter the exit
// must fire too (Path then leaves the stream where the minimal path left
// it), and an empty or dead result must leave the route stream where
// ugalSampled does: the repair draw reads it next. Under -race, 500 pairs
// per combination instead of 3000.
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
						// Two dead routers leave some pairs unroutable.
						for k := 0; k < 2; k++ {
							r := rs[rng.Intn(len(rs))]
							for _, v := range spec.Graph.Neighbors(r) {
								dead[r*n+int(v)], dead[int(v)*n+r] = true, true
							}
						}
						u.Live = func(a, b int) bool { return !dead[a*n+b] }
						u.Min = unroutableFrom{u.Min, rs[rng.Intn(len(rs))]}
					}
					// The engine's per-packet route stream: seeded from the
					// run seed and the packet counter.
					var stream splitmix
					pktRNG := rand.New(&stream)
					floor, exits, unrouted := 0, 0, 0
					for i := int64(0); i < pairs; i++ {
						src, dst := rs[rng.Intn(len(rs))], rs[rng.Intn(len(rs))]
						if src == dst {
							continue
						}
						stream.seed(5, i)
						want := ugalSampled(u, src, dst, occ, pktRNG)
						wantNext := pktRNG.Int63()
						stream.seed(5, i)
						got := u.Path(nil, src, dst, occ, pktRNG)
						gotNext := pktRNG.Int63()
						if !slices.Equal(got, want) {
							t.Fatalf("%s global=%v empty=%d%% live=%v: %d→%d: Path %v, sampling %v",
								name, global, emptyFrac, faulty, src, dst, got, want)
						}
						if faulty && (len(got) == 0 || !pathLive(got, u.Live)) {
							unrouted++
							if gotNext != wantNext {
								t.Fatalf("%s global=%v empty=%d%%: %d→%d: empty or dead result leaves the route stream at %d, sampling at %d",
									name, global, emptyFrac, src, dst, gotNext, wantNext)
							}
						}
						stream.seed(5, i)
						min := u.Min.AppendPath(nil, src, dst, pktRNG)
						if pktRNG.Int63() == gotNext {
							exits++ // Path drew no sample
						}
						if u.score(min, occ) <= u.PktSize*(len(min)-1) {
							floor++
						}
					}
					if emptyFrac > 0 && floor == 0 {
						t.Errorf("%s global=%v live=%v: no pair scored at the floor", name, global, faulty)
					}
					if emptyFrac > 0 && exits == 0 {
						t.Errorf("%s global=%v live=%v: the floor exit never fired", name, global, faulty)
					}
					if emptyFrac == 0 && exits != 0 {
						t.Errorf("%s global=%v live=%v: the floor exit fired %d times with every queue busy", name, global, faulty, exits)
					}
					if faulty && unrouted == 0 {
						t.Errorf("%s global=%v empty=%d%%: no pair ended empty: the route stream check is vacuous", name, global, emptyFrac)
					}
				}
			}
		}
	}
}

// TestUGALFloorRNGFreeEngines checks the declaration UGAL's second-leg
// skip rests on: an engine implementing route.RNGFree returns the same
// path for a nil rng and two differently seeded streams and leaves the
// stream's next draw unchanged, over all router pairs of every small spec
// whose MinEngine declares it. Both PolarStar specs must declare it; the
// all-minpath table and HyperX, which sample with rng, must not.
func TestUGALFloorRNGFreeEngines(t *testing.T) {
	declared := map[string]bool{}
	for _, name := range smallSpecNames {
		spec := must(NewSpec(name))
		e, ok := spec.MinEngine.(route.RNGFree)
		if !ok {
			continue
		}
		declared[name] = true
		n := spec.Graph.N()
		var a, b splitmix
		ra, rb := rand.New(&a), rand.New(&b)
		a.seed(1, 0)
		nextA := ra.Int63()
		b.seed(2, 0)
		nextB := rb.Int63()
		var p0, pa, pb []int
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				a.seed(1, 0)
				b.seed(2, 0)
				p0 = e.AppendPath(p0[:0], src, dst, nil)
				pa = e.AppendPath(pa[:0], src, dst, ra)
				pb = e.AppendPath(pb[:0], src, dst, rb)
				if !slices.Equal(p0, pa) || !slices.Equal(p0, pb) {
					t.Fatalf("%s: %d→%d: path %v with nil rng, %v and %v with two streams", name, src, dst, p0, pa, pb)
				}
				if ra.Int63() != nextA || rb.Int63() != nextB {
					t.Fatalf("%s: %d→%d: AppendPath drew from the stream", name, src, dst)
				}
			}
		}
	}
	for _, name := range []string{"ps-iq-small", "ps-pal-small"} {
		if !declared[name] {
			t.Errorf("%s: MinEngine does not declare route.RNGFree", name)
		}
	}
	g := must(NewSpec("ps-iq-small")).Graph
	hx := must(NewSpec("hx-small")).MinEngine
	if _, ok := hx.(*route.HyperX); !ok {
		t.Fatalf("hx-small MinEngine is %T, want *route.HyperX", hx)
	}
	for _, e := range []route.Engine{route.NewTable(g, route.AllMinPaths), hx} {
		if _, ok := e.(route.RNGFree); ok {
			t.Errorf("%T samples with rng but declares route.RNGFree", e)
		}
	}
}
