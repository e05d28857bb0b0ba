package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method),
// so the spread this program prints is the one the driver computes.
// Fewer than two values have no quartiles: all three are the value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside 0..4 at the clamped ends: Python extrapolates there
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// steadiness figure each end-to-end bound is compared against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// tailLadder lists the percentiles a timing may be reported at beyond
// its median, lowest first, each with the k of "one sample in k lies
// beyond it".
var tailLadder = []struct {
	p float64
	k int
}{{90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailPercentile picks the highest ladder percentile that still has at
// least ten samples beyond it; ok is false when even p90 has fewer (then
// only the median is reported).
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailLadder {
		if n >= 10*c.k {
			p, ok = c.p, true
		}
	}
	return p, ok
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule on the sorted copy.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// timing summarises latency samples the way every timing here is
// reported: median, sample count, and the tail percentile the count
// supports.
type timing struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailP  float64 `json:"tail_p,omitempty"` // which percentile Tail is (0: none supported)
	Tail   float64 `json:"tail,omitempty"`
	Unit   string  `json:"unit"`
	Metric string  `json:"metric"`
}

func summarise(metric, unit string, xs []float64) timing {
	t := timing{N: len(xs), P50: median(xs), Unit: unit, Metric: metric}
	if p, ok := tailPercentile(len(xs)); ok {
		t.TailP, t.Tail = p, percentile(xs, p)
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
