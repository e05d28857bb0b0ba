package sim

import (
	"fmt"

	"polarstar/internal/graph"
	"polarstar/internal/traffic"
)

// Validate reports whether the parameters describe a runnable
// experiment on a topology with cfg's endpoint count. It covers every
// condition NewEngine would otherwise panic on (calendar overflow) plus
// the basic sanity bounds, so callers fed from untrusted input — the
// facade and the serving layer — can reject a request with an error
// before any construction work happens.
func (p Params) Validate(cfg traffic.Config) error {
	if p.PacketFlits < 1 {
		return fmt.Errorf("sim: PacketFlits must be >= 1, got %d", p.PacketFlits)
	}
	if p.BufFlitsPerVC < p.PacketFlits {
		return fmt.Errorf("sim: BufFlitsPerVC (%d) must hold at least one packet (%d flits)", p.BufFlitsPerVC, p.PacketFlits)
	}
	if p.BufFlitsPerVC%p.PacketFlits != 0 {
		// A VC is reserved only for a whole packet, so a remainder would
		// never hold one: depth 33 would run exactly as 32 does.
		return fmt.Errorf("sim: BufFlitsPerVC (%d) must be a multiple of PacketFlits (%d)", p.BufFlitsPerVC, p.PacketFlits)
	}
	if p.LinkLatency < 0 {
		return fmt.Errorf("sim: LinkLatency must be >= 0, got %d", p.LinkLatency)
	}
	if p.Warmup < 0 || p.Measure < 1 || p.Drain < 0 {
		return fmt.Errorf("sim: cycle windows must satisfy Warmup >= 0, Measure >= 1, Drain >= 0; got %d/%d/%d",
			p.Warmup, p.Measure, p.Drain)
	}
	if total := int64(p.Warmup) + int64(p.Measure) + int64(p.Drain); total >= maxCycle {
		return fmt.Errorf("sim: %d total cycles overflow the generation calendar's packed cycle field (max %d)",
			total, maxCycle-1)
	}
	if eps := cfg.Endpoints(); eps >= maxEndpoint {
		return fmt.Errorf("sim: %d endpoints overflow the generation calendar's %d-bit endpoint field (max %d)",
			eps, epBits, maxEndpoint-1)
	}
	if p.Lanes < 0 || p.Lanes > 8 {
		return fmt.Errorf("sim: Lanes must be in [0, 8] (0: default), got %d", p.Lanes)
	}
	if p.RepairDelay < 0 {
		return fmt.Errorf("sim: RepairDelay must be >= 0 (0: instant repair), got %d", p.RepairDelay)
	}
	return nil
}

// CheckDegree reports whether g's routers are within the simulator's
// degree limit: a packet stores each hop as a one-byte adjacency slot
// (store.go), so no router may have more than 255 neighbours. NewEngine
// panics with the same message; RunPoint and faults.TrafficSweep return
// it as an error. Params.Validate cannot check it, since it sees the
// endpoint arrangement but not the graph.
func CheckDegree(g *graph.Graph) error {
	if d := g.MaxDegree(); d > maxDegree {
		return fmt.Errorf("sim: %s has a router of degree %d; packets address hops by one-byte adjacency slots, so the simulator takes degree <= %d",
			g.Name(), d, maxDegree)
	}
	return nil
}

// CheckReachable verifies that the traffic pattern only addresses
// endpoint pairs whose routers are connected in g, so a sweep on a
// disconnected spec fails fast with a descriptive error instead of
// silently injecting packets that can only be counted lost. Fixed
// patterns (permutation, bit patterns, adversarial) are checked pair by
// pair; random patterns address every host pair eventually, so all
// hosting routers must share one component.
//
// Degraded-topology sweeps (faults.TrafficSweep past the intact point,
// engines under an active fault plan) deliberately skip this check —
// losing packets on severed pairs is the experiment there.
func CheckReachable(g *graph.Graph, cfg traffic.Config, pattern traffic.Pattern) error {
	comp := components(g)
	if fp, ok := pattern.(traffic.FixedPattern); ok {
		for src := 0; src < cfg.Endpoints(); src++ {
			dst := fp.FixedDest(src)
			if dst < 0 {
				continue
			}
			sr, dr := cfg.RouterOf(src), cfg.RouterOf(dst)
			if comp[sr] != comp[dr] {
				return fmt.Errorf("sim: pattern %q sends endpoint %d (router %d) to endpoint %d (router %d), which is unreachable in %s",
					pattern.Name(), src, sr, dst, dr, g.Name())
			}
		}
		return nil
	}
	firstHost := -1
	for h := 0; h < cfg.NumHosts(); h++ {
		r := cfg.RouterOf(h * cfg.PerRouter)
		if firstHost < 0 {
			firstHost = r
			continue
		}
		if comp[r] != comp[firstHost] {
			return fmt.Errorf("sim: pattern %q addresses all host pairs, but routers %d and %d are in different components of %s",
				pattern.Name(), firstHost, r, g.Name())
		}
	}
	return nil
}

// components labels the connected components of g by BFS.
func components(g *graph.Graph) []int32 {
	n := g.N()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int32, 0, n)
	next := int32(0)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue, int32(s))
		for head := len(queue) - 1; head < len(queue); head++ {
			for _, w := range g.Neighbors(int(queue[head])) {
				if comp[w] < 0 {
					comp[w] = next
					queue = append(queue, w)
				}
			}
		}
		next++
	}
	return comp
}
