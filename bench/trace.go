package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by this program around
// the call (the layers themselves carry no timers). Parent is the index
// of the span that caused it (-1 for a root); spans of one engine run,
// request or swap walk share ID.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the package a span's time is charged to: the name up to the
// first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs execute the same driver code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(parent int, name string, id int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// len is the number of spans recorded so far (0 on a nil tracer).
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// truncate drops every span from index n on; nothing may be recording.
func (t *tracer) truncate(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:n]
	t.mu.Unlock()
}

// do runs fn inside a span and returns fn's wall time, traced or not.
func (t *tracer) do(parent int, name string, id int, fn func(self int)) time.Duration {
	i := t.begin(parent, name, id)
	start := time.Now()
	fn(i)
	d := time.Since(start)
	t.end(i)
	return d
}

// covered is the length of the union of the given [start,end) intervals
// clipped to [lo,hi).
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	at := lo
	for _, x := range iv {
		s, e := max(x[0], at), min(x[1], hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	kids := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(kids[i], s.Start, s.End)
	}
	return self
}

// attributeWall splits the wall time of the root spans over layers so
// that the shares add up to exactly that wall. A span's self time is
// charged to its layer; where children ran concurrently (their
// durations sum to more than the interval they cover) each is scaled by
// covered÷summed, so two engines sharing two cores for a second charge
// half a second each, not a second each.
func attributeWall(spans []span) map[string]float64 {
	self := selfTimes(spans)
	sumKids := make([]int64, len(spans))
	covKids := make([]int64, len(spans))
	for i, s := range spans {
		covKids[i] = (s.End - s.Start) - self[i]
		if s.Parent >= 0 {
			sumKids[s.Parent] += s.End - s.Start
		}
	}
	// Parents are always recorded before their children, so one forward
	// pass sees every parent's scale before it is needed.
	scale := make([]float64, len(spans))
	out := map[string]float64{}
	for i, s := range spans {
		scale[i] = 1
		if p := s.Parent; p >= 0 && sumKids[p] > 0 {
			scale[i] = scale[p] * float64(covKids[p]) / float64(sumKids[p])
		}
		out[s.layer()] += scale[i] * float64(self[i]) / 1e9
	}
	return out
}

// rootWall is the summed duration of the parentless spans.
func rootWall(spans []span) float64 {
	var ns int64
	for _, s := range spans {
		if s.Parent < 0 {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}
