// Package flowsim is the message-level discrete-event simulator behind
// the real-world motif evaluation (§10): the substitute for SST/Merlin.
//
// Messages traverse router paths with pipelined (wormhole-style) link
// occupancy: each link on the path is busy for size/bandwidth, the head
// advances with a fixed per-hop latency, and links serve messages in
// arrival order. The §10 configuration is 4 GB/s links and 20 ns
// router+link latency per hop.
//
// The per-message hot path is allocation-free in steady state: routes
// are appended through route.Engine.AppendPath into reusable buffers,
// and per-link reservation state is a dense array indexed by the CSR
// channel id of each directed arc (graph.ChannelID) instead of a
// map[int64]float64 — the same discipline as the cycle simulator.
package flowsim

import (
	"math/rand"

	"polarstar/internal/graph"
	"polarstar/internal/obs"
	"polarstar/internal/route"
	"polarstar/internal/traffic"
)

// Params configures link bandwidth and latency.
type Params struct {
	BytesPerNS float64 // link bandwidth (paper: 4 GB/s = 4 bytes/ns)
	HopLatNS   float64 // per-hop router+link latency (paper: 20 ns)
	Adaptive   bool    // UGAL-style adaptive path choice
	Samples    int     // Valiant samples when adaptive (paper: 4)
	Seed       int64
}

// DefaultParams mirrors §10.1.
func DefaultParams(seed int64) Params {
	return Params{BytesPerNS: 4, HopLatNS: 20, Samples: 4, Seed: seed}
}

// Network simulates one topology. State (link reservations) persists
// across Send calls, so callers should issue messages in roughly
// non-decreasing send-time order (motif rounds do).
type Network struct {
	p      Params
	engine route.Engine
	g      *graph.Graph
	mids   []int // Valiant intermediates for adaptive mode (nil: all)
	n      int   // router count
	cfg    traffic.Config
	rng    *rand.Rand

	linkFree []float64 // directed channel id -> free-at time
	injFree  []float64 // endpoint injection link
	ejFree   []float64 // endpoint ejection link

	pathBuf []int // reusable buffer holding the chosen path
	candBuf []int // reusable buffer for adaptive candidates

	met *obs.FlowRun // optional telemetry sink (nil: off)
}

// New builds a network simulator over a routing engine. g is the router
// graph the engine routes on; its channel ids key the per-link state.
func New(engine route.Engine, cfg traffic.Config, g *graph.Graph, mids []int, p Params) *Network {
	if p.Samples <= 0 {
		p.Samples = 4
	}
	return &Network{
		p:        p,
		engine:   engine,
		g:        g,
		mids:     mids,
		n:        g.N(),
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(p.Seed)),
		linkFree: make([]float64, g.NumChannels()),
		injFree:  make([]float64, cfg.Endpoints()),
		ejFree:   make([]float64, cfg.Endpoints()),
	}
}

// Observe attaches a telemetry sink: every subsequent Send updates the
// message/byte counters, the hop histogram and the per-link busy-time
// vector of m. The vector is sized here, once, so the per-Send record
// path stays allocation-free; collection never touches the RNG or the
// reservation state, so delivery times are identical with or without it.
func (n *Network) Observe(m *obs.FlowRun) {
	if m.LinkBusyNS.BusyNS == nil {
		m.LinkBusyNS.BusyNS = make([]float64, n.g.NumChannels())
	}
	n.met = m
}

// score is the UGAL-L path metric: first-link availability plus
// serialized hop latency (the flow-level analogue of queue depth).
func (n *Network) score(path []int) float64 {
	if len(path) < 2 {
		return 0
	}
	return n.linkFree[n.g.ChannelID(path[0], path[1])] + float64(len(path)-1)*n.p.HopLatNS
}

// pathFor picks the route for a message, adaptively if configured. The
// returned slice aliases a reusable buffer valid until the next call.
func (n *Network) pathFor(srcR, dstR int) []int {
	best := n.engine.AppendPath(n.pathBuf[:0], srcR, dstR, n.rng)
	n.pathBuf = best
	if !n.p.Adaptive {
		return best
	}
	bestScore := n.score(best)
	cand := n.candBuf
	for s := 0; s < n.p.Samples; s++ {
		var mid int
		if n.mids != nil {
			mid = n.mids[n.rng.Intn(len(n.mids))]
		} else {
			mid = n.rng.Intn(n.n)
		}
		if mid == srcR || mid == dstR {
			continue
		}
		// Both legs are routed before feasibility is checked so the RNG
		// advances exactly as the historical Route-based implementation.
		cand = n.engine.AppendPath(cand[:0], srcR, mid, n.rng)
		legA := len(cand)
		cand = n.engine.AppendPath(cand, mid, dstR, n.rng)
		if legA == 0 || len(cand) == legA {
			continue
		}
		// Join the legs: drop the duplicated intermediate.
		copy(cand[legA:], cand[legA+1:])
		cand = cand[:len(cand)-1]
		if sc := n.score(cand); sc < bestScore {
			best, cand = cand, best
			bestScore = sc
		}
	}
	n.pathBuf, n.candBuf = best, cand
	return best
}

// Send injects a message of the given size from srcEP to dstEP at time
// `at` (ns) and returns its delivery time.
func (n *Network) Send(srcEP, dstEP int, bytes float64, at float64) float64 {
	ser := bytes / n.p.BytesPerNS
	// Injection link.
	start := at
	if f := n.injFree[srcEP]; f > start {
		start = f
	}
	n.injFree[srcEP] = start + ser
	head := start + n.p.HopLatNS

	srcR, dstR := n.cfg.RouterOf(srcEP), n.cfg.RouterOf(dstEP)
	hops := 0
	if srcR != dstR {
		path := n.pathFor(srcR, dstR)
		hops = len(path) - 1
		for i := 0; i+1 < len(path); i++ {
			c := n.g.ChannelID(path[i], path[i+1])
			s := head
			if f := n.linkFree[c]; f > s {
				s = f
			}
			n.linkFree[c] = s + ser
			head = s + n.p.HopLatNS
			if n.met != nil {
				n.met.LinkBusyNS.Add(c, ser)
			}
		}
	}
	// Ejection link.
	s := head
	if f := n.ejFree[dstEP]; f > s {
		s = f
	}
	n.ejFree[dstEP] = s + ser
	done := s + n.p.HopLatNS + ser
	if m := n.met; m != nil {
		m.Messages.Inc()
		m.Bytes += bytes
		m.Hops.Observe(int64(hops))
		m.InjBusyNS += ser
		m.EjBusyNS += ser
		if done > m.LastDeliveryNS {
			m.LastDeliveryNS = done
			// The utilization denominator tracks the makespan as it grows.
			m.LinkBusyNS.SpanNS = done
		}
	}
	return done
}
