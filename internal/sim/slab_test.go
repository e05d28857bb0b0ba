package sim

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"polarstar/internal/obs"
)

// slabLive counts ids currently outside the allocator (queued or in
// flight): slab capacity minus every free-list entry.
func slabLive(e *Engine) int {
	free := len(e.pkts.free)
	for _, sh := range e.shards {
		free += len(sh.freeIDs) + len(sh.freed)
	}
	return e.pkts.cap() - free
}

// slabExpectedLive is what slabLive must equal after a run: the reported
// queue backlog plus packets caught mid-link in the mail rings when the
// horizon (or the watchdog) cut the run off.
func slabExpectedLive(e *Engine, res Result) int {
	inFlight := 0
	for i := range e.mail {
		inFlight += len(e.mail[i])
	}
	return res.Backlog + inFlight
}

// slabCase is one run whose slab and head-record invariants are checked.
type slabCase struct {
	name     string
	spec     string // "" selects ps-iq-small
	mode     RoutingMode
	pattern  string // "" selects uniform
	bufFlits int    // 0 keeps the default VC depth
	lanes    int
	load     float64
	plan     *Plan
	retry    RetryPolicy
	// during also checks every 64 cycles while the run is in progress, so
	// a stale head record is caught when it happens rather than at drain.
	during bool
}

// run drives the case at the given worker count and returns the engine
// for post-run slab inspection.
func (c slabCase) run(t *testing.T, workers int) (*Engine, Result) {
	t.Helper()
	spec := fuzzSpec("ps-iq-small")
	if c.spec != "" {
		spec = must(NewSpec(c.spec))
	}
	p := DefaultParams(11)
	p.Warmup, p.Measure, p.Drain = 300, 600, 1500
	p.Workers = workers
	p.Lanes = c.lanes
	p.Plan = c.plan
	p.Retry = c.retry
	if c.bufFlits > 0 {
		p.BufFlitsPerVC = c.bufFlits
	}
	name := c.pattern
	if name == "" {
		name = "uniform"
	}
	pattern, err := spec.Pattern(name, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	routing, err := spec.Routing(c.mode, p)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(p, spec.Graph, spec.Config(), routing, pattern)
	if err := eng.layoutCheck(); err != nil {
		t.Fatal(err)
	}
	var res Result
	if c.during {
		res = runChecking(t, eng, c.load, 64, nil, eng.slabCheck)
	} else {
		res = runGuarded(t, eng, c.load)
	}
	return eng, res
}

// runChecking is Engine.Run stepped by hand — without the event-horizon
// skips, which change no result — calling check after every every-th
// cycle and, when probe is non-nil, probe inside every cycle (stepProbed).
func runChecking(t *testing.T, e *Engine, load float64, every int64, probe func(), check func() error) Result {
	t.Helper()
	total := int64(e.p.Warmup + e.p.Measure + e.p.Drain)
	e.initGeneration(load / float64(e.p.PacketFlits))
	for c := int64(0); c < total; c++ {
		if probe != nil {
			e.stepProbed(c, probe)
		} else {
			e.stepCycle(c)
		}
		if c%every == 0 {
			if err := check(); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
		if e.fs != nil && e.fs.done {
			total = c + 1
			break
		}
	}
	e.now = total
	e.pool.stop()
	return e.result(load)
}

// stepProbed is stepCycle with probe called between the routing and the
// arbitration phase. TestInvariantsEveryCycle compares the Results of
// runs stepped this way with Engine.Run's.
func (e *Engine) stepProbed(t int64, probe func()) {
	e.now = t
	e.measuring = e.measured(t)
	if e.fs != nil {
		e.applyFaults(t)
		e.injectRetries(t)
	}
	e.generate(t)
	e.refillIDs()
	e.pool.run(phaseRoute)
	probe()
	e.pool.run(phaseArbitrate)
	e.commit(t)
	if e.fs != nil {
		e.collectRetries(t)
		e.watchdog(t)
	}
}

// TestSlabInvariantAfterRun pins the allocator contract of the packet
// store and the head-record contract of arbitration: between cycles and
// after any run, every id ever created is accounted for exactly once (no
// leaks, no id live in two queues), every unit's head record agrees with
// its queue, and a fully drained healthy run returns every id to the
// allocator (allocated − freed == 0).
func TestSlabInvariantAfterRun(t *testing.T) {
	cases := []slabCase{
		{name: "healthy-low", mode: UGALMode, load: 0.2},
		{name: "healthy-saturated", mode: UGALMode, load: 0.9, during: true},
		{name: "faulty", mode: UGALMode, load: 0.3, during: true, plan: &Plan{Events: []FaultEvent{
			{Cycle: 350, Kind: LinkDown, U: 0, V: 1},
			{Cycle: 500, Kind: RouterDown, U: 5},
			{Cycle: 700, Kind: LinkUp, U: 0, V: 1},
		}}},
		{name: "terminated-early", mode: UGALMode, load: 0.3,
			plan:  &Plan{Events: []FaultEvent{{Cycle: 50, Kind: RouterDown, U: 3}}},
			retry: RetryPolicy{MaxRetries: 3, BackoffBase: 4, BackoffCap: 64, MaxAge: 1500}},
		// laneFailover is the only code that changes a head packet's path
		// while it is queued; the engine golden's lane-failover row pins
		// this run's Result and failover count.
		{name: "lane-failover", spec: mpTestSpec, mode: MPUGALMode, lanes: 3, pattern: "adversarial",
			bufFlits: 8, load: 0.7, during: true, plan: failoverPlan(t)},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 4} {
				eng, res := c.run(t, workers)
				if err := eng.slabCheck(); err != nil {
					t.Fatalf("workers=%d: %v (result %+v)", workers, err, res)
				}
				// A drained healthy run must hand every id back; stranded,
				// backlogged or mid-link packets legitimately keep theirs.
				if live, want := slabLive(eng), slabExpectedLive(eng, res); live != want {
					t.Errorf("workers=%d: %d live ids, want %d (result %+v)",
						workers, live, want, res)
				}
			}
		})
	}
}

// failoverPlan fails links of two of the three tree lanes of mpTestSpec one
// after another; the third lane stays whole, the failover target of
// packets queued behind them.
func failoverPlan(t *testing.T) *Plan {
	t.Helper()
	plan := &Plan{}
	for _, edges := range laneEdges(t, must(NewSpec(mpTestSpec)), 3)[:2] {
		for i := 0; i < 6; i++ {
			e := edges[i*7%len(edges)]
			plan.Events = append(plan.Events, FaultEvent{Cycle: int64(350 + 40*i), Kind: LinkDown, U: e[0], V: e[1]})
		}
	}
	return plan
}

// TestSlabGrowsByTheChunk pins the slab's growth on fig_sweep's heaviest
// point (ps-iq-small, UGAL, adversarial, load 0.7, its 250/500/1000-cycle
// windows and seed), where the backlog keeps growing to the horizon: the
// slab never holds more than the peak live id count rounded up to one
// chunk. Live ids are counted between the routing and the arbitration
// phase, when every id handed out this cycle is on a queue or in flight
// and none has been freed yet.
func TestSlabGrowsByTheChunk(t *testing.T) {
	spec := must(NewSpec("ps-iq-small"))
	p := DefaultParams(1 + 2*7919) // fig_sweep's seed for its third load at -seed 1
	p.Warmup, p.Measure, p.Drain = 250, 500, 1000
	eng := NewEngine(p, spec.Graph, spec.Config(), must(spec.Routing(UGALMode, p)), must(spec.Pattern("adversarial", p.Seed)))
	peak := 0
	probe := func() {
		live := eng.pkts.cap() - len(eng.pkts.free)
		for _, sh := range eng.shards {
			live -= len(sh.freeIDs)
		}
		peak = max(peak, live)
	}
	bound := func() int { return (peak + pktChunk - 1) / pktChunk * pktChunk }
	res := runChecking(t, eng, 0.7, 1, probe, func() error {
		if c := eng.pkts.cap(); c > bound() {
			return fmt.Errorf("slab holds %d ids, peak live %d rounds up to %d", c, peak, bound())
		}
		return nil
	})
	t.Logf("slab %d ids, peak live %d, backlog %d", eng.pkts.cap(), peak, res.Backlog)
	if !res.Saturated || peak < 64*pktChunk {
		t.Fatalf("peak live %d ids, result %+v: the point must saturate to pin anything", peak, res)
	}
}

// TestRecordSizes pins the layouts arbitration's memory traffic and the
// engine's footprint rest on: a packet is half a cache line, and a unit's
// head record and queue cost 16 and 8 bytes however many VCs multiply the
// unit count.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(pkt{}); n != 32 {
		t.Errorf("pkt is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(unitState{}); n != 16 {
		t.Errorf("unitState is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(pktQueue{}); n != 8 {
		t.Errorf("pktQueue is %d bytes, want 8", n)
	}
}

// TestEngineFootprint pins what NewEngine allocates for the largest VC
// ladder a benchmark builds: ps-iq MP-MIN, 40 VCs, where per-unit state
// dominates. A channel has units for band 0 and for the one tree lane its
// edge belongs to, 40 bytes each; the bounds sit a little above that
// layout's totals (7.4 and 1.7 MiB) and well below those of a layout that
// gives every channel every band (26.4 and 5.1 MiB). TotalAlloc counts
// bytes allocated, so the figure is deterministic: no GC timing enters it.
// The unit counts are exact: band 0 on every channel, lane l's band on
// both directions of its tree's edges, one injection queue per endpoint,
// and the shard padding; single-lane engines keep every VC on every
// channel.
func TestEngineFootprint(t *testing.T) {
	for _, c := range []struct {
		spec string
		mode RoutingMode
		max  float64 // MiB; 0: count units only
	}{
		{"ps-iq", MPMINMode, 9},
		{"ps-iq-small", MPMINMode, 2},
		{"ps-iq-small", MPUGALMode, 0},
		{"ps-iq", MIN, 0},
		{"ps-iq-small", UGALMode, 0},
	} {
		spec := must(NewSpec(c.spec))
		p := DefaultParams(1)
		p.SetCycles(200)
		routing := must(spec.Routing(c.mode, p))
		pattern := must(spec.Pattern("uniform", p.Seed))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng := NewEngine(p, spec.Graph, spec.Config(), routing, pattern)
		runtime.ReadMemStats(&after)
		eng.pool.stop()
		name := c.spec + " " + c.mode.String()
		got := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("%s: %d VCs, %d units, NewEngine allocates %.1f MiB", name, eng.vcs, len(eng.units), got)
		if c.max > 0 && got > c.max {
			t.Errorf("%s: NewEngine allocates %.1f MiB, want <= %.0f", name, got, c.max)
		}
		if err := eng.layoutCheck(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eps := spec.Config().Endpoints()
		padding := -1 // endpoint 0's injection queue has unitChan ^0 == -1 too
		for _, ch := range eng.unitChan {
			if ch == -1 {
				padding++
			}
		}
		if padding < 0 || padding >= numShards*64 {
			t.Fatalf("%s: %d padding units, want [0, %d)", name, padding, numShards*64)
		}
		w := func(l int) int { return int(eng.laneEnd[l] - eng.laneBase[l]) }
		want := spec.Graph.NumChannels()*w(0) + eps + padding
		if lr, ok := routing.(lanedRouting); ok {
			for l := 1; l < eng.laneCount; l++ {
				want += 2 * len(lr.LaneEdges(l)) * w(l)
			}
		} else if w(0) != eng.vcs {
			t.Fatalf("%s: single-lane band 0 has %d of %d VCs", name, w(0), eng.vcs)
		}
		if len(eng.units) != want {
			t.Errorf("%s: %d units, want %d", name, len(eng.units), want)
		}
	}
}

// FuzzSlabInvariants fuzzes the slab allocator the way FuzzRoutePaths
// fuzzes the routers: arbitrary load, worker count, seed and fault-plan
// shape, asserting the accounting invariant after every run.
func FuzzSlabInvariants(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), false, uint16(100), uint8(3))
	f.Add(int64(7), uint8(9), uint8(1), true, uint16(60), uint8(0))
	f.Add(int64(42), uint8(5), uint8(16), true, uint16(400), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, loadB, workersB uint8, faulty bool, faultCycle uint16, faultRouter uint8) {
		spec := fuzzSpec("ps-iq-small")
		p := DefaultParams(seed)
		p.Warmup, p.Measure, p.Drain = 200, 400, 1200
		p.Workers = int(workersB % 17)
		p.Metrics = &obs.SimRun{}
		p.MetricsInterval = 64
		if faulty {
			r := int(faultRouter) % spec.Graph.N()
			p.Plan = &Plan{Events: []FaultEvent{
				{Cycle: int64(faultCycle), Kind: RouterDown, U: r},
				{Cycle: int64(faultCycle) + 200, Kind: RouterUp, U: r},
			}}
			p.Retry = RetryPolicy{MaxRetries: 2, BackoffBase: 4, BackoffCap: 32, MaxAge: 900}
		}
		load := 0.05 + float64(loadB%10)*0.1
		pattern, err := spec.Pattern("uniform", p.Seed)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(p, spec.Graph, spec.Config(), spec.MinRouting(), pattern)
		if err := eng.layoutCheck(); err != nil {
			t.Fatal(err)
		}
		res := eng.Run(load)
		if err := eng.slabCheck(); err != nil {
			t.Fatalf("%v (result %+v)", err, res)
		}
		if live, want := slabLive(eng), slabExpectedLive(eng, res); live != want {
			t.Errorf("%d live ids, want %d (result %+v)", live, want, res)
		}
	})
}

// TestGenHeapPackingGuards pins the construction-time validation of the
// generation calendar's packed (cycle<<epBits | endpoint) events: a spec
// with too many endpoints, or a run longer than the packed cycle field,
// must panic with a descriptive error instead of silently corrupting the
// heap order.
func TestGenHeapPackingGuards(t *testing.T) {
	spec := fuzzSpec("ps-iq-small")
	mustPanic := func(name string, p Params, perRouter int) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("NewEngine accepted an overflowing configuration")
				}
			}()
			cfg := spec.Config()
			if perRouter > 0 {
				cfg.PerRouter = perRouter
			}
			pattern, err := spec.Pattern("uniform", 1)
			if err != nil {
				t.Fatal(err)
			}
			NewEngine(p, spec.Graph, cfg, spec.MinRouting(), pattern)
		})
	}
	p := DefaultParams(1)
	mustPanic("endpoints", p, maxEndpoint/spec.Graph.N()+1)
	long := DefaultParams(1)
	long.Warmup, long.Measure, long.Drain = int(maxCycle/2), int(maxCycle/2), 0
	mustPanic("cycles", long, 0)
}

// layoutCheck verifies what NewEngine fixes about the units for the whole
// run: that minVC == 0 marks exactly the injection queues (tryForward
// reads injEP on that condition alone), and that a channel unit carries a
// VC of band 0 or of its channel's tree lane, at the unit tryForward
// addresses for it.
func (e *Engine) layoutCheck() error {
	for u, got := range e.units {
		c := e.unitChan[u]
		if inj := c < 0 && e.injUnit[e.injEP(int32(u))] == int32(u); (got.minVC == 0) != inj {
			return fmt.Errorf("sim: unit %d has minVC %d and channel %d: minVC 0 must mark exactly the injection queues", u, got.minVC, c)
		}
		if c < 0 {
			continue
		}
		// Band 0 from the channel's unit base, then its tree lane's band.
		vc, l, at := int32(got.minVC-1), int8(0), e.chanUnit[c]+int32(got.minVC-1)
		if e.chanLane != nil {
			l = e.chanLane[c]
		}
		if vc >= e.laneEnd[0] {
			at += e.laneEnd[0] - e.laneBase[l]
		}
		if at != int32(u) || vc >= e.laneEnd[l] || vc >= e.laneEnd[0] && vc < e.laneBase[l] {
			return fmt.Errorf("sim: unit %d carries VC %d of channel %d (unit base %d, lane %d band [%d,%d)): not where tryForward addresses it",
				u, vc, c, e.chanUnit[c], l, e.laneBase[l], e.laneEnd[l])
		}
	}
	return nil
}

// remainingChans decodes the channels packet id has still to cross,
// queued on (or in flight to) unit, appending them to buf: its slots from
// hop on, starting at the unit's home router. Every slot must be below the
// degree of the router it leaves, and the walk must end at the router of
// the packet's destination endpoint.
func (e *Engine) remainingChans(id, unit int32, buf []int32) ([]int32, error) {
	p := e.pkts.at(id)
	r := int(e.unitHome[unit])
	for i := p.hop; i < p.nHops; i++ {
		s := int(p.slots[i])
		if s >= e.g.Degree(r) {
			return buf, fmt.Errorf("sim: packet %d on unit %d: hop %d leaves router %d by slot %d, past its degree %d", id, unit, i, r, s, e.g.Degree(r))
		}
		c := e.g.FirstChannel(r) + s
		buf = append(buf, int32(c))
		r = e.g.ChannelTo(c)
	}
	if dst := e.cfg.RouterOf(int(p.dstEP)); r != dst {
		return buf, fmt.Errorf("sim: packet %d on unit %d: its slots from hop %d of %d end at router %d, its destination endpoint %d is at router %d",
			id, unit, p.hop, p.nHops, r, p.dstEP, dst)
	}
	return buf, nil
}

// slabCheck verifies the packet-id accounting invariant: every id ever
// created is in exactly one place — the global free stack, a shard's
// allocation cache or freed journal, a queue, or a mail ring — and every
// queue's list ends at its tail. Violations mean a leak (an id lost to
// the allocator forever) or a double-spend (one id live in two queues,
// i.e. two packets aliasing one slab slot).
// It also verifies the head-record invariant of arbitrate.go: a unit's
// record is the empty sentinel exactly when its queue is empty, and
// otherwise equals a fresh reading of the queue's front packet — a stale
// record would arbitrate a packet that is no longer (or not yet) there —
// and sends it over a channel, or to an endpoint, of the unit's own router.
// Every queued and in-flight packet's remaining slots decode, from its
// unit's home router, to a walk that ends at its destination's router
// (remainingChans). All of it holds between any two cycles; the property
// and fuzz tests call it after runs (including terminated-early fault
// runs where stranded ids legitimately stay in queues) and every few
// cycles during some.
func (e *Engine) slabCheck() error {
	return e.slabCheckInto(new([]slabPlace))
}

// slabPlace is where slabCheck found a packet id: a place kind and its
// index, so the walk formats nothing until it reports.
type slabPlace struct{ kind, idx int32 }

// slabCheckInto is slabCheck with its owner table (id -> slabPlace) kept
// in *owner, so a checker that runs it every cycle reuses one table
// instead of allocating a slab-sized one per call.
func (e *Engine) slabCheckInto(buf *[]slabPlace) error {
	const (
		inFree = iota + 1
		inCache
		inFreed
		inQueue
		inMail
	)
	kinds := []string{inFree: "free stack", inCache: "shard %d cache", inFreed: "shard %d freed journal", inQueue: "queue %d", inMail: "mail box %d"}
	describe := func(p slabPlace) string {
		if p.kind == inFree {
			return kinds[inFree]
		}
		return fmt.Sprintf(kinds[p.kind], p.idx)
	}
	if cap(*buf) < e.pkts.cap() {
		*buf = make([]slabPlace, e.pkts.cap())
	}
	owner := (*buf)[:e.pkts.cap()]
	clear(owner)
	claim := func(id int32, kind, idx int) error {
		where := slabPlace{int32(kind), int32(idx)}
		if id < 0 || int(id) >= len(owner) {
			return fmt.Errorf("sim: packet id %d outside slab [0,%d) in %s", id, len(owner), describe(where))
		}
		if owner[id].kind != 0 {
			return fmt.Errorf("sim: packet id %d in both %s and %s", id, describe(owner[id]), describe(where))
		}
		owner[id] = where
		return nil
	}
	for _, id := range e.pkts.free {
		if err := claim(id, inFree, 0); err != nil {
			return err
		}
	}
	for s, sh := range e.shards {
		for _, id := range sh.freeIDs {
			if err := claim(id, inCache, s); err != nil {
				return err
			}
		}
		for _, id := range sh.freed {
			if err := claim(id, inFreed, s); err != nil {
				return err
			}
		}
	}
	for u := range e.queues {
		q := &e.queues[u]
		n, last := 0, int32(-1)
		// A list that loops claims its first repeated id twice, so the walk
		// ends either way.
		for id := q.head; id >= 0; id = *e.pkts.link(id) {
			if err := claim(id, inQueue, u); err != nil {
				return err
			}
			if _, err := e.remainingChans(id, int32(u), nil); err != nil {
				return err
			}
			n, last = n+1, id
		}
		if n > 0 && q.tail != last {
			return fmt.Errorf("sim: queue %d ends at packet %d, its tail says %d", u, last, q.tail)
		}
		got := e.units[u]
		if q.head < 0 {
			if got.next != headEmpty {
				return fmt.Errorf("sim: unit %d is empty, its head record says next %d", u, got.next)
			}
			continue
		}
		want := got
		want.setHead(e.pkts.at(q.head), e.firstChannel(int32(u)))
		if got != want {
			return fmt.Errorf("sim: unit %d (queue length %d) has head record {next %d rem %d lane %d}, its queue says {next %d rem %d lane %d}",
				u, n, got.next, got.rem, got.lane, want.next, want.rem, want.lane)
		}
		// The head must be going somewhere its router can send it.
		home := int(e.unitHome[u])
		if got.rem == headEject {
			if r := e.cfg.RouterOf(int(got.next)); r != home {
				return fmt.Errorf("sim: unit %d at router %d ejects to endpoint %d of router %d", u, home, got.next, r)
			}
		} else if first := e.g.FirstChannel(home); int(got.next) < first || int(got.next) >= first+e.g.Degree(home) {
			return fmt.Errorf("sim: unit %d at router %d forwards on channel %d, not one of its own", u, home, got.next)
		}
	}
	for i := range e.mail {
		for _, a := range e.mail[i] {
			if err := claim(a.id, inMail, i); err != nil {
				return err
			}
			if _, err := e.remainingChans(a.id, a.unit, nil); err != nil {
				return err
			}
		}
	}
	for id, w := range owner {
		if w.kind == 0 {
			return fmt.Errorf("sim: packet id %d leaked (in no free list, queue or mail ring)", id)
		}
	}
	return nil
}
