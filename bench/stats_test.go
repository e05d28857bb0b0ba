package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	cases := []struct {
		n    int
		want float64 // 0: median only
	}{
		{1, 0}, {12, 0}, {99, 0},
		{100, 90}, {199, 90},
		{200, 95}, {999, 95},
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {50000, 99.9}, {99999, 99.9},
		{100000, 99.99},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != (c.want != 0) || p != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", c.n, p, ok, c.want)
		}
	}
}

func TestSummariseReportsCountAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarise("m", "us", xs)
	if s.N != 1000 || s.P50 != 500.5 || s.TailP != 99 || s.Tail != 990 {
		t.Errorf("summarise = %+v", s)
	}
	if s := summarise("m", "ms", xs[:12]); s.TailP != 0 || s.Tail != 0 || s.P50 != 6.5 {
		t.Errorf("12 samples must report the median only, got %+v", s)
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"wall_s", "s", "lower", 0.10}
	higher := metricDef{"work_per_s", "1/s", "higher", 0.10}
	if _, v := verdict(lower, []float64{10}, []float64{10.9}); v != "ok" {
		t.Errorf("+9%% on a lower-is-better metric: %s", v)
	}
	if _, v := verdict(lower, []float64{10}, []float64{11.5}); v != "worse" {
		t.Errorf("+15%% on a lower-is-better metric: %s", v)
	}
	if _, v := verdict(higher, []float64{100}, []float64{85}); v != "worse" {
		t.Errorf("-15%% on a higher-is-better metric: %s", v)
	}
	if _, v := verdict(higher, []float64{100}, []float64{150}); v != "ok" {
		t.Errorf("+50%% on a higher-is-better metric: %s", v)
	}
	noisy := []float64{8, 9, 10, 11, 12, 13}
	if _, v := verdict(lower, noisy, []float64{10.5}); v != "unresolved" {
		t.Errorf("a base whose own spread exceeds the bound: %s", v)
	}
}
