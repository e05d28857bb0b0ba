package sim

import (
	"fmt"
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
	// pins, when set, makes the run observed and names the mechanisms the
	// case exists for: a case whose counter reads zero pins nothing.
	pins func(t *testing.T, m *obs.SimRun)
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
	if c.pins != nil {
		p.Metrics = &obs.SimRun{}
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
	var res Result
	if c.during {
		res = runChecking(t, eng, c.load)
	} else {
		res = runGuarded(t, eng, c.load)
	}
	if c.pins != nil {
		c.pins(t, p.Metrics)
	}
	return eng, res
}

// runChecking is Engine.Run stepped by hand — without the event-horizon
// skips, which change no result — checking the invariants between cycles.
func runChecking(t *testing.T, e *Engine, load float64) Result {
	t.Helper()
	total := int64(e.p.Warmup + e.p.Measure + e.p.Drain)
	e.initGeneration(load / float64(e.p.PacketFlits))
	for c := int64(0); c < total; c++ {
		e.stepCycle(c)
		if c%64 == 0 {
			if err := e.slabCheck(); err != nil {
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

// TestSlabInvariantAfterRun pins the allocator contract of the packet
// store and the head-record contract of arbitration: between cycles and
// after any run, every id ever created is accounted for exactly once (no
// leaks, no id live in two queues), every unit's head record agrees with
// its queue, and a fully drained healthy run returns every id to the
// allocator (allocated − freed == 0).
func TestSlabInvariantAfterRun(t *testing.T) {
	// Links of two of the three tree lanes fail one after another; the third
	// lane stays whole, the failover target of packets queued behind them.
	var lanePlan Plan
	for _, edges := range laneEdges(t, must(NewSpec(mpTestSpec)), 3)[:2] {
		for i := 0; i < 6; i++ {
			e := edges[i*7%len(edges)]
			lanePlan.Events = append(lanePlan.Events, FaultEvent{Cycle: int64(350 + 40*i), Kind: LinkDown, U: e[0], V: e[1]})
		}
	}
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
		// while it is queued. Shallow buffers under adversarial traffic keep
		// units parked for credit while lanes fail under them.
		{name: "lane-failover", spec: mpTestSpec, mode: MPUGALMode, lanes: 3, pattern: "adversarial",
			bufFlits: 8, load: 0.7, during: true, plan: &lanePlan,
			pins: func(t *testing.T, m *obs.SimRun) {
				var failovers int64
				for _, n := range m.Lanes.Failovers {
					failovers += n
				}
				if failovers == 0 || m.Faults.DroppedInFlight == 0 || m.StallCredit == 0 {
					t.Errorf("lane_failovers %d, dropped_in_flight %d, stall_credit %d: all must be > 0",
						failovers, m.Faults.DroppedInFlight, m.StallCredit)
				}
			}},
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

// TestRecordSizes pins the two layouts arbitration's memory traffic and
// the engine's footprint rest on: a packet is one cache line, and a unit
// costs 16 bytes however many VCs multiply the unit count.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(pkt{}); n != 64 {
		t.Errorf("pkt is %d bytes, want 64", n)
	}
	if n := unsafe.Sizeof(unitState{}); n != 16 {
		t.Errorf("unitState is %d bytes, want 16", n)
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

// slabCheck verifies the packet-id accounting invariant: every id ever
// created is in exactly one place — the global free stack, a shard's
// allocation cache or freed journal, a queue, or a mail ring. Violations
// mean a leak (an id lost to the allocator forever) or a double-spend
// (one id live in two queues, i.e. two packets aliasing one slab slot).
// It also verifies the head-record invariant of arbitrate.go: a unit's
// record is the empty sentinel exactly when its queue is empty, and
// otherwise equals a fresh reading of the queue's front packet — a stale
// record would arbitrate a packet that is no longer (or not yet) there —
// and sends it over a channel, or to an endpoint, of the unit's own router;
// and that minVC == 0 marks exactly the injection queues (tryForward reads
// unitEP on that condition alone).
// Both hold between any two cycles; the property and fuzz tests call it
// after runs (including terminated-early fault runs where stranded ids
// legitimately stay in queues) and every few cycles during some.
func (e *Engine) slabCheck() error {
	owner := make([]string, e.pkts.cap())
	claim := func(id int32, where string) error {
		if id < 0 || int(id) >= len(owner) {
			return fmt.Errorf("sim: packet id %d outside slab [0,%d) in %s", id, len(owner), where)
		}
		if owner[id] != "" {
			return fmt.Errorf("sim: packet id %d in both %s and %s", id, owner[id], where)
		}
		owner[id] = where
		return nil
	}
	for _, id := range e.pkts.free {
		if err := claim(id, "free stack"); err != nil {
			return err
		}
	}
	for s, sh := range e.shards {
		for _, id := range sh.freeIDs {
			if err := claim(id, fmt.Sprintf("shard %d cache", s)); err != nil {
				return err
			}
		}
		for _, id := range sh.freed {
			if err := claim(id, fmt.Sprintf("shard %d freed journal", s)); err != nil {
				return err
			}
		}
	}
	for u := range e.queues {
		q := &e.queues[u]
		for _, id := range q.buf[q.head:] {
			if err := claim(id, fmt.Sprintf("queue %d", u)); err != nil {
				return err
			}
		}
		got := e.units[u]
		if (got.minVC == 0) != (e.unitEP[u] >= 0) {
			return fmt.Errorf("sim: unit %d has minVC %d and endpoint %d: minVC 0 must mark exactly the injection queues", u, got.minVC, e.unitEP[u])
		}
		if q.empty() {
			if got.next != headEmpty {
				return fmt.Errorf("sim: unit %d is empty, its head record says next %d", u, got.next)
			}
			continue
		}
		want := got
		want.setHead(e.pkts.at(q.front()))
		if got != want {
			return fmt.Errorf("sim: unit %d (queue length %d) has head record {next %d rem %d lane %d}, its queue says {next %d rem %d lane %d}",
				u, q.len(), got.next, got.rem, got.lane, want.next, want.rem, want.lane)
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
			if err := claim(a.id, fmt.Sprintf("mail box %d", i)); err != nil {
				return err
			}
		}
	}
	for id, w := range owner {
		if w == "" {
			return fmt.Errorf("sim: packet id %d leaked (in no free list, queue or mail ring)", id)
		}
	}
	return nil
}
