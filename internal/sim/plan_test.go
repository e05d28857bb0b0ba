package sim

import (
	"reflect"
	"strings"
	"testing"
)

func TestParsePlanRoundTrip(t *testing.T) {
	text := "# a comment\n10 link-down 0 1\n\n5 router-down 2\n20 link-up 0 1\n30 router-up 2\n"
	p, err := ParsePlan(text)
	if err != nil {
		t.Fatal(err)
	}
	if p.Empty() || len(p.Events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(p.Events))
	}
	want := "5 router-down 2\n10 link-down 0 1\n20 link-up 0 1\n30 router-up 2\n"
	if got := p.String(); got != want {
		t.Errorf("canonical form:\n%s\nwant:\n%s", got, want)
	}
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if p2.Hash() != p.Hash() {
		t.Error("round-tripped plan hashes differently")
	}
	var nilPlan *Plan
	if !nilPlan.Empty() || !(&Plan{}).Empty() {
		t.Error("nil/zero plans should be empty")
	}
	if nilPlan.Hash() != (&Plan{}).Hash() {
		t.Error("nil and zero plans should hash equal")
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"x link-down 0 1",    // bad cycle
		"-5 link-down 0 1",   // negative cycle
		"10 frob 1 2",        // unknown kind
		"10 link-down 0",     // missing vertex
		"10 router-down 1 2", // extra vertex
		"10 link-down a b",   // bad vertex
		"10 router-down",     // too few fields
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("ParsePlan(%q) error %v does not name the line", bad, err)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	g := must(NewSpec("ps-iq-small")).Graph
	e := g.Edges()[0]
	good := &Plan{Events: []FaultEvent{
		{Cycle: 10, Kind: LinkDown, U: e[0], V: e[1]},
		{Cycle: 20, Kind: RouterDown, U: 0},
	}}
	if err := good.Validate(g); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	bad := []*Plan{
		{Events: []FaultEvent{{Cycle: -1, Kind: LinkDown, U: e[0], V: e[1]}}},
		{Events: []FaultEvent{{Cycle: 1, Kind: LinkDown, U: 0, V: 0}}},     // self loop: not an edge
		{Events: []FaultEvent{{Cycle: 1, Kind: LinkDown, U: 0, V: g.N()}}}, // out of range
		{Events: []FaultEvent{{Cycle: 1, Kind: RouterDown, U: g.N()}}},     // out of range
		{Events: []FaultEvent{{Cycle: 1, Kind: EventKind(9), U: 0}}},       // unknown kind
	}
	for i, p := range bad {
		if err := p.Validate(g); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	g := must(NewSpec("ps-iq-small")).Graph
	a := RandomPlan(g, 50, 100, 2000, 9)
	b := RandomPlan(g, 50, 100, 2000, 9)
	if a.Empty() {
		t.Fatal("mtbf 50 over 2000 cycles produced no failures")
	}
	if a.Hash() != b.Hash() {
		t.Error("same seed produced different plans")
	}
	if c := RandomPlan(g, 50, 100, 2000, 10); c.Hash() == a.Hash() {
		t.Error("different seeds produced identical plans")
	}
	if err := a.Validate(g); err != nil {
		t.Errorf("generated plan invalid: %v", err)
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].Cycle < a.Events[i-1].Cycle {
			t.Fatal("generated plan not sorted by cycle")
		}
	}
	// Every failure is paired with a repair exactly `repair` cycles later.
	downs, ups := 0, 0
	for _, ev := range a.Events {
		switch ev.Kind {
		case LinkDown:
			downs++
		case LinkUp:
			ups++
		}
	}
	if downs == 0 || downs != ups {
		t.Errorf("MTBF/MTTR plan has %d downs, %d ups", downs, ups)
	}
}

func TestRetryPolicyNormalized(t *testing.T) {
	if got := (RetryPolicy{}).normalized(); got != DefaultRetryPolicy() {
		t.Errorf("zero policy normalized to %+v", got)
	}
	got := RetryPolicy{MaxRetries: -1, BackoffBase: 0, BackoffCap: -5, MaxAge: 7}.normalized()
	if got.MaxRetries != 0 || got.BackoffBase != 1 || got.BackoffCap != 1 || got.MaxAge != 7 {
		t.Errorf("degenerate policy normalized to %+v", got)
	}
}

// FuzzParsePlan: ParsePlan never panics, and a plan it accepts reads
// back from its canonical text unchanged.
func FuzzParsePlan(f *testing.F) {
	f.Add("# a comment\n10 link-down 0 1\n\n5 router-down 2\n20 link-up 0 1\n30 router-up 2\n")
	f.Add("7 link-down 3 4\n7 link-up 3 4\n7 link-down 3 4\n")
	f.Add("  +12\trouter-up -1  \r\n")
	f.Add("1 link-down 0\n")
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParsePlan(text)
		if err != nil {
			return
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not parse: %v", p.String(), text, err)
		}
		if !reflect.DeepEqual(q, p) {
			t.Fatalf("plan %+v reads back from %q as %+v", p, p.String(), q)
		}
	})
}
