// Package analysis provides fast, simulation-free estimates of network
// behavior: per-link load distributions under a traffic pattern and the
// implied saturation-throughput bound. These analytical bounds
// cross-validate the cycle-level simulator (a sweep's measured saturation
// load can never exceed the bottleneck-link bound) and explain the Fig 9
// orderings structurally.
package analysis

import (
	"math/rand"
	"sort"
	"sync"

	"polarstar/internal/graph"
	"polarstar/internal/route"
	"polarstar/internal/traffic"
)

// LinkLoads is the per-directed-link load distribution induced by a
// traffic pattern under a routing engine, in units of
// flits-per-cycle-per-endpoint offered load 1.0.
type LinkLoads struct {
	// Max is the bottleneck normalized load: a link carrying Max units
	// saturates at offered load 1/Max.
	Max float64
	// Mean is the average over used links.
	Mean float64
	// P99 is the 99th percentile load.
	P99 float64
	// Gini measures load imbalance in [0,1): 0 = perfectly even.
	Gini float64
	// UsedLinks counts links carrying any traffic.
	UsedLinks int
}

// loadShards is the fixed endpoint-striping factor of ComputeLinkLoads.
// It is a constant — not GOMAXPROCS — so results are identical on any
// machine: endpoint ep always belongs to shard ep mod loadShards, with a
// shard-specific RNG stream derived from the seed.
const loadShards = 16

// shardSeed derives the RNG seed of one shard from the sweep seed.
func shardSeed(seed int64, s int) int64 {
	return seed ^ (int64(s+1) * 0x5DEECE66D)
}

// ComputeLinkLoads routes every endpoint `rounds` times under the pattern
// and accumulates per-directed-channel traffic in dense arrays indexed by
// the graph's channel ids (graph.ChannelID). Loads are normalized so that
// a value of 1.0 on a link means the link is fully busy at offered load
// 1.0 (every endpoint injecting one flit per cycle).
//
// Endpoints are striped over loadShards independent shards, routed in
// parallel with per-shard RNGs and per-shard accumulators, then merged in
// fixed shard order — so the result is bit-identical for a given seed
// regardless of GOMAXPROCS or scheduling. Each shard routes through a
// reusable path buffer via Engine.AppendPath, so steady-state sampling
// performs no per-packet heap allocation.
func ComputeLinkLoads(g *graph.Graph, engine route.Engine, cfg traffic.Config, pattern traffic.Pattern, rounds int, seed int64) LinkLoads {
	nChans := g.NumChannels()
	endpoints := cfg.Endpoints()
	if nChans == 0 || endpoints == 0 || rounds <= 0 {
		return LinkLoads{}
	}
	shardLoads := make([][]float64, loadShards)
	shardActive := make([]int, loadShards)
	var wg sync.WaitGroup
	for s := 0; s < loadShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(shardSeed(seed, s)))
			loads := make([]float64, nChans)
			var path []int
			active := 0
			for round := 0; round < rounds; round++ {
				for ep := s; ep < endpoints; ep += loadShards {
					dst := pattern.Dest(ep, rng)
					if dst < 0 {
						continue
					}
					if round == 0 {
						active++
					}
					srcR, dstR := cfg.RouterOf(ep), cfg.RouterOf(dst)
					if srcR == dstR {
						continue
					}
					path = engine.AppendPath(path[:0], srcR, dstR, rng)
					for i := 0; i+1 < len(path); i++ {
						loads[g.ChannelID(path[i], path[i+1])]++
					}
				}
			}
			shardLoads[s] = loads
			shardActive[s] = active
		}(s)
	}
	wg.Wait()

	// Merge in fixed shard order (float summation order is part of the
	// determinism contract), then reduce in channel-id order.
	total := shardLoads[0]
	active := shardActive[0]
	for s := 1; s < loadShards; s++ {
		for c, v := range shardLoads[s] {
			total[c] += v
		}
		active += shardActive[s]
	}
	var out LinkLoads
	if active == 0 {
		return out
	}
	// Normalize: each active endpoint contributed `rounds` packets; at
	// offered load 1.0 it injects 1 flit/cycle, so a link's normalized
	// load is (its packet count) / rounds.
	vals := make([]float64, 0, nChans)
	sum := 0.0
	for _, v := range total {
		if v == 0 {
			continue
		}
		nv := v / float64(rounds)
		vals = append(vals, nv)
		sum += nv
		if nv > out.Max {
			out.Max = nv
		}
	}
	out.UsedLinks = len(vals)
	if len(vals) == 0 {
		return out
	}
	sort.Float64s(vals)
	out.Mean = sum / float64(len(vals))
	out.P99 = vals[int(float64(len(vals)-1)*0.99)]
	// Gini coefficient of the sorted loads (0 when no traffic flowed: the
	// all-zero distribution is perfectly even, and dividing by cum == 0
	// would yield NaN).
	var cum, giniNum float64
	for i, v := range vals {
		cum += v
		giniNum += float64(i+1) * v
	}
	if cum > 0 {
		n := float64(len(vals))
		out.Gini = (2*giniNum - (n+1)*cum) / (n * cum)
	}
	return out
}
