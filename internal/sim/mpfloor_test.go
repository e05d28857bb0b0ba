package sim

import (
	"math/rand"
	"slices"
	"testing"

	"polarstar/internal/route"
)

// pathLaneContest is MultiPathRouting.PathLane as it was before its floor
// exit, over the base lane as it was before UGAL's exit under Live
// (ugalSampled): every packet walks, liveness-checks and copies each up
// tree lane's path, then scores it.
func pathLaneContest(m *MultiPathRouting, src, dst int, occ OccFn, rng *rand.Rand) ([]int, int8) {
	var best []int
	if u, ok := m.Base.(*UGAL); ok {
		best = ugalSampled(u, src, dst, occ, rng)
	} else {
		best = m.Base.Path(nil, src, dst, occ, rng)
	}
	if len(best) == 0 && m.repairPath != nil {
		best = m.repairPath(nil, src, dst, rng)
	}
	lane := int8(0)
	bestScore := m.score(best, occ)
	haveBest := len(best) > 0
	spill := haveBest
	hopCap := len(best) - 1 + sprayStretch
	for l := 0; l < m.MP.TreeLanes(); l++ {
		if m.health != nil && !m.health.up[l] {
			continue
		}
		cand := m.MP.AppendTreePath(nil, l, src, dst, func(u, v int) bool {
			return m.Live == nil || m.Live(u, v)
		})
		if len(cand) == 0 {
			continue
		}
		if spill && len(cand)-1 > hopCap {
			continue
		}
		if sc := m.score(cand, occ); !haveBest || sc < bestScore {
			best, bestScore, lane, haveBest = cand, sc, int8(l+1), true
		}
	}
	if !spill && m.escapePath != nil {
		cand := m.escapePath(nil, src, dst)
		if n := len(cand); n > 0 && n <= MaxPathNodes {
			if sc := m.score(cand, occ); !haveBest || sc < bestScore {
				best, lane, haveBest = cand, 0, true
			}
		}
	}
	if !haveBest {
		return nil, 0
	}
	return best, lane
}

// TestMultipathFloorMatchesContest runs PathLane against pathLaneContest
// with the same per-packet seed, for MP-MIN and MP-UGAL on three specs,
// under random occupancy with 0 % and 50 % of the queues empty, healthy
// and under a fault view: a liveness filter killing 3 % of the links and
// two routers, the first tree lane demoted, a repair table that draws
// from the route stream, and the escape trees. Path and lane must be
// identical, an empty or dead result must leave the stream where the
// contest leaves it, and with empty queues the floor exit must fire.
// Under -race, 500 pairs per combination instead of 3000.
func TestMultipathFloorMatchesContest(t *testing.T) {
	pairs := int64(3000)
	if raceEnabled {
		pairs = 500
	}
	for _, name := range []string{"ps-iq-43", "ps-iq-small", "bf-small"} {
		spec := must(NewSpec(name))
		g := spec.Graph
		n := g.N()
		rs := ugalRouters(spec)
		for _, mode := range []RoutingMode{MPMINMode, MPUGALMode} {
			for _, emptyFrac := range []int{0, 50} {
				for _, faulty := range []bool{false, true} {
					r, err := spec.Routing(mode, Params{Lanes: 3, PacketFlits: 4})
					if err != nil {
						t.Fatal(err)
					}
					m := r.Clone().(*MultiPathRouting)
					rng := rand.New(rand.NewSource(int64(11 + emptyFrac)))
					occs := make([]int, n*n)
					for i := range occs {
						if rng.Intn(100) >= emptyFrac {
							occs[i] = 1 + rng.Intn(40)
						}
					}
					occ := func(a, b int) int { return occs[a*n+b] }
					if faulty {
						dead := make([]bool, n*n)
						repair := route.NewTable(g, route.AllMinPaths)
						for u := 0; u < n; u++ {
							for _, v := range g.Neighbors(u) {
								if u < int(v) && rng.Intn(100) < 3 {
									dead[u*n+int(v)], dead[int(v)*n+u] = true, true
									repair.DropEdge(u, int(v))
								}
							}
						}
						// Two dead routers leave some pairs unroutable.
						for k := 0; k < 2; k++ {
							r := rs[rng.Intn(len(rs))]
							for _, v := range g.Neighbors(r) {
								if !dead[r*n+int(v)] {
									dead[r*n+int(v)], dead[int(v)*n+r] = true, true
									repair.DropEdge(r, int(v))
								}
							}
						}
						live := func(a, b int) bool { return !dead[a*n+b] }
						health := newLaneHealth(m.MP)
						health.up[0] = false
						esc, err := route.NewTreeEscape(g, escapeTrees, 1)
						if err != nil {
							t.Fatal(err)
						}
						m.setLive(live, health, func(buf []int, src, dst int, rng *rand.Rand) []int {
							return repair.AppendPath(buf, src, dst, rng)
						}, func(buf []int, src, dst int) []int {
							return esc.AppendPath(buf, src, dst, live)
						})
					}
					var stream splitmix
					pktRNG := rand.New(&stream)
					exits, unrouted := 0, 0
					var buf []int
					for i := int64(0); i < pairs; i++ {
						src, dst := rs[rng.Intn(len(rs))], rs[rng.Intn(len(rs))]
						if src == dst {
							continue
						}
						stream.seed(3, i)
						want, wantLane := pathLaneContest(m, src, dst, occ, pktRNG)
						wantNext := pktRNG.Int63()
						stream.seed(3, i)
						var lane int8
						buf, lane = m.PathLane(buf[:0], src, dst, occ, pktRNG)
						gotNext := pktRNG.Int63()
						if !slices.Equal(buf, want) || lane != wantLane {
							t.Fatalf("%s %v empty=%d%% faulty=%v: %d→%d: PathLane %v lane %d, contest %v lane %d",
								name, mode, emptyFrac, faulty, src, dst, buf, lane, want, wantLane)
						}
						if m.Live != nil && (len(buf) == 0 || !pathLive(buf, m.Live)) {
							unrouted++
							if gotNext != wantNext {
								t.Fatalf("%s %v empty=%d%%: %d→%d: empty or dead result leaves the route stream at %d, contest at %d",
									name, mode, emptyFrac, src, dst, gotNext, wantNext)
							}
						}
						if lane == 0 && len(buf) > 0 && m.baseMinimal() && m.score(buf, occ) <= m.PktSize*(len(buf)-1) {
							exits++
						}
					}
					if emptyFrac > 0 && exits == 0 {
						t.Errorf("%s %v faulty=%v: the floor exit never fired", name, mode, faulty)
					}
					if emptyFrac == 0 && exits != 0 {
						t.Errorf("%s %v faulty=%v: %d floor exits with every queue busy", name, mode, faulty, exits)
					}
					if faulty && unrouted == 0 {
						t.Errorf("%s %v empty=%d%%: no empty or dead result: the route stream check is vacuous", name, mode, emptyFrac)
					}
				}
			}
		}
	}
}
