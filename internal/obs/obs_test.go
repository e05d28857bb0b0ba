package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	g := make(ChannelHWM, 2)
	for _, v := range []int32{3, 7, 5, 7, 1} {
		g.Observe(1, v)
	}
	if g.Max() != 7 || g[0] != 0 {
		t.Fatalf("gauge = %v, want [0 7]", g)
	}
}

func TestHistogramExactAggregates(t *testing.T) {
	var h Histogram
	vals := []int64{1, 2, 3, 100, 1000, 0}
	var sum, max int64
	for _, v := range vals {
		h.Observe(v)
		sum += v
		if v > max {
			max = v
		}
	}
	if h.Count() != int64(len(vals)) || h.Sum() != sum || h.Max() != max {
		t.Fatalf("count/sum/max = %d/%d/%d, want %d/%d/%d",
			h.Count(), h.Sum(), h.Max(), len(vals), sum, max)
	}
	if got, want := h.Mean(), float64(sum)/float64(len(vals)); got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

// quantileBounds checks the histogram quantile contract against the
// exact sorted data: the estimate is an upper bound for the true
// quantile and never exceeds twice it (base-2 buckets), nor the max.
func quantileBounds(t *testing.T, vals []int64, h *Histogram, q float64) {
	t.Helper()
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.999999) - 1
	if idx < 0 {
		idx = 0
	}
	exact := sorted[idx]
	est := h.Quantile(q)
	if est < exact {
		t.Errorf("q%.2f estimate %d below exact %d", q, est, exact)
	}
	if est > h.Max() {
		t.Errorf("q%.2f estimate %d above max %d", q, est, h.Max())
	}
	if exact > 0 && est > 2*exact {
		t.Errorf("q%.2f estimate %d more than 2x exact %d", q, est, exact)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 20)
		h.Observe(vals[i])
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1.0} {
		quantileBounds(t, vals, &h, q)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := rng.Int63n(1 << 16)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from direct observation")
	}
}

// TestRecordPathZeroAllocs pins the core contract: recording into any
// metric primitive allocates nothing.
func TestRecordPathZeroAllocs(t *testing.T) {
	var c Counter
	var h Histogram
	hwm := make(ChannelHWM, 64)
	var i int64
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(3)
		h.Observe(i % 4096)
		hwm.Observe(int(i%64), int32(i))
		i++
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %.2f objects per op, want 0", allocs)
	}
}

func TestRunMarshalDeterministic(t *testing.T) {
	mk := func() *Run {
		r := NewRun("test")
		r.Manifest.Spec = "ps-iq-small"
		r.Manifest.Seed = 7
		r.Manifest.Workers = 4
		r.Manifest.Args = map[string]string{"b": "2", "a": "1", "c": "3"}
		sw := NewSimSweep("ps-iq-small", "MIN", "uniform", 2)
		sw.Points[0].Load = 0.1
		sw.Points[0].Delivered.Add(100)
		sw.Points[0].Latency.Observe(12)
		sw.Points[0].OccHWM = make(ChannelHWM, 3)
		sw.Points[0].OccHWM.Observe(1, 8)
		r.Sim = sw
		return r
	}
	a, err := mk().Marshal(false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk().Marshal(false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs marshal to different bytes")
	}
	if bytes.Contains(a, []byte(`"timing"`)) {
		t.Fatal("timing block present despite includeTiming=false")
	}
	// With timing, the block must appear.
	r := mk()
	r.Finish()
	withT, err := r.Marshal(true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(withT, []byte(`"timing"`)) {
		t.Fatal("timing block missing despite includeTiming=true")
	}
}

func TestRunJSONRoundTrip(t *testing.T) {
	r := NewRun("pssim")
	r.Manifest.Seed = 1
	sw := NewSimSweep("bf-small", "UGAL", "adversarial", 1)
	sw.Points[0].Latency.Observe(40)
	sw.Points[0].Latency.Observe(90)
	r.Sim = sw
	data, err := r.Marshal(false)
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(data, &tree); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	man, ok := tree["manifest"].(map[string]any)
	if !ok || man["schema"] != Schema {
		t.Fatalf("manifest/schema missing: %v", tree["manifest"])
	}
	lat := tree["sim"].(map[string]any)["points"].([]any)[0].(map[string]any)["latency_cycles"].(map[string]any)
	for _, k := range []string{"count", "p50", "p95", "p99", "max", "buckets"} {
		if _, ok := lat[k]; !ok {
			t.Errorf("latency histogram JSON missing %q", k)
		}
	}
}

func TestMarshalCSV(t *testing.T) {
	r := NewRun("pssim")
	r.Manifest.Seed = 9
	sw := NewSimSweep("hx-small", "MIN", "uniform", 1)
	sw.Points[0].Delivered.Add(5)
	r.Sim = sw
	data, err := r.MarshalCSV(false)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "path,value\n") {
		t.Fatalf("CSV missing header: %q", s[:40])
	}
	for _, want := range []string{"manifest.seed,9", "sim.points.0.delivered,5", "manifest.tool,\"pssim\""} {
		if !strings.Contains(s, want) {
			t.Errorf("CSV missing row %q", want)
		}
	}
	// Determinism.
	again, _ := r.MarshalCSV(false)
	if !bytes.Equal(data, again) {
		t.Fatal("CSV not deterministic")
	}
}

// FuzzHistogram drives Observe with arbitrary values and checks the
// structural invariants: bucket counts sum to the observation count,
// quantiles are monotone in q, and every quantile is bounded by the max.
func FuzzHistogram(f *testing.F) {
	f.Add(int64(1), int64(100), int64(1<<30))
	f.Add(int64(-5), int64(0), int64(1))
	f.Fuzz(func(t *testing.T, a, b, c int64) {
		var h Histogram
		for _, v := range []int64{a, b, c, a ^ b, b ^ c} {
			h.Observe(v)
		}
		var bucketSum int64
		for _, n := range h.buckets {
			bucketSum += n
		}
		if bucketSum != h.Count() {
			t.Fatalf("bucket sum %d != count %d", bucketSum, h.Count())
		}
		prev := int64(-1 << 62)
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("quantiles not monotone: q=%v gave %d after %d", q, v, prev)
			}
			if v > h.Max() {
				t.Fatalf("quantile %v = %d exceeds max %d", q, v, h.Max())
			}
			prev = v
		}
		if _, err := h.MarshalJSON(); err != nil {
			t.Fatalf("marshal: %v", err)
		}
	})
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum }
