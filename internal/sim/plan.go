package sim

// Dynamic fault plans: scripted link/router failures (and optional
// repairs) consumed by the cycle-level engine. A Plan is the dynamic
// complement of the structural §11.2 sweep — instead of measuring a
// statically degraded topology, the engine applies the events while
// traffic is in flight, so the experiment observes dropped packets,
// source retries and re-routing around the damage.

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"polarstar/internal/graph"
	"polarstar/internal/obs"
)

// EventKind is the kind of one fault-plan event.
type EventKind uint8

// Fault event kinds.
const (
	// LinkDown fails the undirected link U–V: both directed channels stop
	// arbitrating, packets in flight on them are dropped (credits
	// reclaimed) and source-retried.
	LinkDown EventKind = iota
	// LinkUp repairs a previously failed link.
	LinkUp
	// RouterDown fails router U: every incident link goes down and its
	// endpoints stop ejecting.
	RouterDown
	// RouterUp repairs a previously failed router.
	RouterUp
)

func (k EventKind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case RouterDown:
		return "router-down"
	case RouterUp:
		return "router-up"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// FaultEvent is one scripted topology change at a given cycle. V is
// ignored for router events.
type FaultEvent struct {
	Cycle int64
	Kind  EventKind
	U, V  int
}

// Plan is a deterministic schedule of fault events, sorted by cycle. The
// engine applies every event whose cycle has been reached at the start of
// the cycle, before generation and routing. An empty plan is equivalent
// to no plan at all: the engine takes the healthy fast path and results
// are bit-identical to a plan-less run.
type Plan struct {
	Events []FaultEvent
}

// Empty reports whether the plan carries no events.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// normalize sorts events by cycle, keeping the relative order of events
// at the same cycle (repair-before-refail sequences stay meaningful).
func (p *Plan) normalize() {
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].Cycle < p.Events[j].Cycle })
}

// Validate checks the plan against a topology: cycles must be
// non-negative, link events must name edges of g, and router events must
// name vertices of g.
func (p *Plan) Validate(g *graph.Graph) error {
	if p == nil {
		return nil
	}
	for i, ev := range p.Events {
		if ev.Cycle < 0 {
			return fmt.Errorf("sim: plan event %d: negative cycle %d", i, ev.Cycle)
		}
		switch ev.Kind {
		case LinkDown, LinkUp:
			if ev.U < 0 || ev.U >= g.N() || ev.V < 0 || ev.V >= g.N() || !g.HasEdge(ev.U, ev.V) {
				return fmt.Errorf("sim: plan event %d: (%d,%d) is not a link of %s", i, ev.U, ev.V, g.Name())
			}
		case RouterDown, RouterUp:
			if ev.U < 0 || ev.U >= g.N() {
				return fmt.Errorf("sim: plan event %d: router %d outside the %d-router graph", i, ev.U, g.N())
			}
		default:
			return fmt.Errorf("sim: plan event %d: unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// String renders the plan in its canonical text form — the same format
// ParsePlan reads, one event per line, sorted by cycle. Hash is the
// FNV-1a of this form, so two plans hash equal iff they script the same
// schedule.
func (p *Plan) String() string {
	var b strings.Builder
	for _, ev := range p.Events {
		switch ev.Kind {
		case RouterDown, RouterUp:
			fmt.Fprintf(&b, "%d %s %d\n", ev.Cycle, ev.Kind, ev.U)
		default:
			fmt.Fprintf(&b, "%d %s %d %d\n", ev.Cycle, ev.Kind, ev.U, ev.V)
		}
	}
	return b.String()
}

// Hash returns the FNV-1a 64-bit hash of the canonical text form,
// recorded in run manifests so degraded runs are reproducible from
// artifacts alone.
func (p *Plan) Hash() uint64 {
	h := fnv.New64a()
	if p != nil {
		h.Write([]byte(p.String()))
	}
	return h.Sum64()
}

// ParsePlan reads the text form of a plan: one event per line,
//
//	<cycle> link-down <u> <v>
//	<cycle> link-up <u> <v>
//	<cycle> router-down <r>
//	<cycle> router-up <r>
//
// Blank lines and '#' comments are skipped. Events may appear in any
// order; the returned plan is sorted by cycle.
func ParsePlan(text string) (*Plan, error) {
	p := &Plan{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("sim: plan line %d: want '<cycle> <kind> <args>', got %q", lineNo, line)
		}
		cycle, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil || cycle < 0 {
			return nil, fmt.Errorf("sim: plan line %d: bad cycle %q", lineNo, fields[0])
		}
		var kind EventKind
		var wantArgs int
		switch fields[1] {
		case "link-down":
			kind, wantArgs = LinkDown, 2
		case "link-up":
			kind, wantArgs = LinkUp, 2
		case "router-down":
			kind, wantArgs = RouterDown, 1
		case "router-up":
			kind, wantArgs = RouterUp, 1
		default:
			return nil, fmt.Errorf("sim: plan line %d: unknown event kind %q", lineNo, fields[1])
		}
		if len(fields) != 2+wantArgs {
			return nil, fmt.Errorf("sim: plan line %d: %s takes %d arguments, got %d", lineNo, fields[1], wantArgs, len(fields)-2)
		}
		ev := FaultEvent{Cycle: cycle, Kind: kind}
		if ev.U, err = strconv.Atoi(fields[2]); err != nil {
			return nil, fmt.Errorf("sim: plan line %d: bad vertex %q", lineNo, fields[2])
		}
		if wantArgs == 2 {
			if ev.V, err = strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("sim: plan line %d: bad vertex %q", lineNo, fields[3])
			}
		}
		p.Events = append(p.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sim: plan: %w", err)
	}
	p.normalize()
	return p, nil
}

// RandomPlan generates a seeded random link-failure schedule with
// exponential inter-failure times of mean mtbf cycles over [1, horizon).
// Each failure takes down a uniformly random currently-live link; when
// repair > 0 the link comes back repair cycles later (an MTBF/MTTR
// process), otherwise failures are permanent. Deterministic per seed.
func RandomPlan(g *graph.Graph, mtbf float64, repair, horizon int64, seed int64) *Plan {
	p := &Plan{}
	if mtbf <= 0 || horizon <= 0 || g.M() == 0 {
		return p
	}
	edges := g.Edges()
	rng := rand.New(rand.NewSource(seed))
	upAt := make(map[[2]int]int64) // edge -> cycle it comes back (1<<62: never)
	t := int64(0)
	for {
		t += int64(rng.ExpFloat64()*mtbf) + 1
		if t >= horizon {
			break
		}
		e := edges[rng.Intn(len(edges))]
		if up, down := upAt[e]; down && up > t {
			continue // the drawn link is already down: the failure is a no-op
		}
		p.Events = append(p.Events, FaultEvent{Cycle: t, Kind: LinkDown, U: e[0], V: e[1]})
		if repair > 0 {
			p.Events = append(p.Events, FaultEvent{Cycle: t + repair, Kind: LinkUp, U: e[0], V: e[1]})
			upAt[e] = t + repair
		} else {
			upAt[e] = 1 << 62
		}
	}
	p.normalize()
	return p
}

// LoadPlan builds a fault plan from a plan file, an MTBF generator, or
// both (events merge). It validates the result against g. file == "" and
// mtbf <= 0 yield an empty plan.
func LoadPlan(file string, mtbf float64, repair int64, g *graph.Graph, horizon, seed int64) (*Plan, error) {
	p := &Plan{}
	if file != "" {
		text, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("sim: fault plan: %w", err)
		}
		if p, err = ParsePlan(string(text)); err != nil {
			return nil, err
		}
	}
	if mtbf > 0 {
		p.Events = append(p.Events, RandomPlan(g, mtbf, repair, horizon, seed).Events...)
		p.normalize()
	}
	if err := p.Validate(g); err != nil {
		return nil, err
	}
	return p, nil
}

// RetryPolicy bounds the source-retry behavior of fault-injected runs: a
// packet dropped by a failing link (or unroutable at injection while the
// topology is degraded) is re-injected at its source endpoint after an
// exponential backoff, up to MaxRetries times and only while younger
// than MaxAge cycles. The zero value selects DefaultRetryPolicy.
type RetryPolicy struct {
	MaxRetries  int   // source retries per packet before it counts as lost
	BackoffBase int64 // cycles before the first retry; doubles per retry
	BackoffCap  int64 // upper bound on the backoff
	MaxAge      int64 // per-packet age limit in cycles since generation (0: none)
}

// DefaultRetryPolicy is the retry configuration used when Params.Retry is
// left zero: 4 retries, 8-cycle base backoff capped at 512, 4096-cycle
// packet age limit.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 4, BackoffBase: 8, BackoffCap: 512, MaxAge: 4096}
}

// normalized returns the policy with the zero value replaced by the
// default and degenerate fields clamped to usable values.
func (rp RetryPolicy) normalized() RetryPolicy {
	if rp == (RetryPolicy{}) {
		rp = DefaultRetryPolicy()
	}
	if rp.BackoffBase < 1 {
		rp.BackoffBase = 1
	}
	if rp.BackoffCap < rp.BackoffBase {
		rp.BackoffCap = rp.BackoffBase
	}
	if rp.MaxRetries < 0 {
		rp.MaxRetries = 0
	}
	return rp
}

// FaultManifest is the provenance block of a fault-injected run: the
// canonical plan hash, the generator parameters that produced it (plan
// file, MTBF, repair; zero when the plan was scripted directly) and the
// retry policy the engine actually applies, so a degraded run is
// reproducible from its artifact alone. Nil without a plan.
func (p Params) FaultManifest(source string, mtbf float64, repair int64) *obs.FaultPlan {
	if p.Plan == nil {
		return nil
	}
	rp := p.Retry.normalized()
	return &obs.FaultPlan{
		Hash:        fmt.Sprintf("%016x", p.Plan.Hash()),
		Events:      len(p.Plan.Events),
		Source:      source,
		MTBF:        mtbf,
		Repair:      repair,
		RepairDelay: p.RepairDelay,
		MaxRetries:  rp.MaxRetries,
		BackoffBase: rp.BackoffBase,
		BackoffCap:  rp.BackoffCap,
		MaxAge:      rp.MaxAge,
	}
}
