// Package obs is the run-telemetry layer: allocation-free metric
// primitives (counters, per-channel high-water marks, fixed-bucket
// histograms) plus a run-manifest writer that turns every experiment run
// into a self-describing JSON/CSV artifact.
//
// Two contracts govern the package:
//
//   - Zero allocations on the record path. Counter.Add, ChannelHWM.Observe
//     and Histogram.Observe are plain integer updates into storage that
//     was sized once, before the hot loop started — the simulators keep
//     their AllocsPerRun == 0 guarantee with metrics enabled (see the
//     regression tests in internal/sim and internal/flowsim).
//
//   - Deterministic artifacts. Every recorded value is an integer count
//     or a value derived from the run's own deterministic state, and the
//     writers marshal structs (fixed field order) and sorted maps, so two
//     runs with equal seed and worker count produce byte-identical
//     metrics files once the volatile timing block is excluded (see
//     Run.Write).
package obs

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; it marshals as a plain JSON number.
type Counter int64

// Add increases the counter by n.
func (c *Counter) Add(n int64) { *c += Counter(n) }

// Inc increases the counter by one.
func (c *Counter) Inc() { *c++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return int64(*c) }

// histBuckets is the fixed bucket count of Histogram: bucket i holds
// values v with bits.Len64(v) == i, i.e. [2^(i-1), 2^i). Bucket 0 holds
// v <= 0. 48 buckets cover every latency/occupancy magnitude the
// simulators can produce (2^47 cycles).
const histBuckets = 48

// Histogram is a fixed-bucket exponential (base-2) histogram of int64
// observations. It is a value type with inline storage: embedding it in
// a per-shard struct costs one allocation at setup and none per Observe.
// Quantile estimates report the inclusive upper bound of the bucket the
// quantile falls in, which keeps them integer and deterministic.
type Histogram struct {
	count   int64
	sum     int64
	max     int64
	buckets [histBuckets]int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.buckets[i]++
}

// Merge adds the contents of o into h. Counts are integers, so merge
// order cannot affect the result.
func (h *Histogram) Merge(o *Histogram) {
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// inclusive upper edge of the first bucket whose cumulative count reaches
// q·count, clamped to the observed maximum. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	need := int64(q * float64(h.count))
	if float64(need) < q*float64(h.count) {
		need++
	}
	if need < 1 {
		need = 1
	}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum >= need {
			var hi int64
			if i > 0 {
				hi = (int64(1) << uint(i)) - 1
			}
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// bucketBounds returns the inclusive value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	return int64(1) << uint(i-1), (int64(1) << uint(i)) - 1
}

// MarshalJSON renders the histogram as a summary object:
//
//	{"count":N,"sum":S,"max":M,"mean":…,"p50":…,"p95":…,"p99":…,
//	 "buckets":[[lo,hi,count],…]}
//
// Only non-empty buckets are listed. All fields are integers except the
// mean; formatting is deterministic.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, `{"count":%d,"sum":%d,"max":%d,"mean":%s,"p50":%d,"p95":%d,"p99":%d,"buckets":[`,
		h.count, h.sum, h.max,
		strconv.FormatFloat(h.Mean(), 'g', 10, 64),
		h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	first := true
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		lo, hi := bucketBounds(i)
		fmt.Fprintf(&b, "[%d,%d,%d]", lo, hi, n)
	}
	b.WriteString("]}")
	return []byte(b.String()), nil
}

// ChannelHWM is a per-channel high-water-mark array (e.g. peak queued
// flits per directed channel). It marshals as a summary plus the full
// per-channel vector, so per-channel hotspots stay inspectable while the
// headline number remains one field.
type ChannelHWM []int32

// Observe raises channel c's mark to v when v exceeds it.
func (m ChannelHWM) Observe(c int, v int32) {
	if v > m[c] {
		m[c] = v
	}
}

// Max returns the global high-water mark across channels.
func (m ChannelHWM) Max() int32 {
	var max int32
	for _, v := range m {
		if v > max {
			max = v
		}
	}
	return max
}

// MarshalJSON renders {"max":M,"nonzero":K,"per_channel":[…]}.
func (m ChannelHWM) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	nz := 0
	for _, v := range m {
		if v != 0 {
			nz++
		}
	}
	fmt.Fprintf(&b, `{"max":%d,"nonzero":%d,"per_channel":[`, m.Max(), nz)
	for i, v := range m {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(int64(v), 10))
	}
	b.WriteString("]}")
	return []byte(b.String()), nil
}
