// Package stats provides the measurement primitives shared by the simulator
// and the experiment harness: streaming accumulators, latency histograms
// with logarithmic bucketing (the paper's Figure 16 uses a log latency
// axis), the ceil-rank quantile rule, and fault and recovery counters.
package stats

import (
	"math"
	"sort"
	"sync"
)

// Accumulator tracks count/mean/min/max of a stream of samples using
// Welford's online algorithm. It also keeps Welford's m2 (the sum of squared
// deviations from the mean): no caller reads it, but it is part of the
// MarshalBinary encoding that cached Results carry. The zero value is ready
// to use.
type Accumulator struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Count returns the number of samples recorded.
func (a *Accumulator) Count() int64 { return a.n }

// Mean returns the sample mean, or 0 with no samples.
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest sample, or 0 with no samples.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample, or 0 with no samples.
func (a *Accumulator) Max() float64 { return a.max }

// Histogram is a fixed-bucket histogram over non-negative integer samples
// (packet latencies in cycles). Buckets grow geometrically so that both a
// 3-cycle delivery and a 10 000-cycle pathological deflection are resolved,
// mirroring the log axis of the paper's Fig 16.
//
// The summary moments are kept as exact integers (count, sum, max) rather
// than a floating-point accumulator, so the mean does not depend on the
// order samples arrive in.
type Histogram struct {
	bounds []int64 // upper inclusive bound per bucket
	counts []int64
	over   int64 // samples beyond the last bound
	n      int64 // total samples
	sum    int64 // exact sample sum
	max    int64 // largest sample

	// small[x] is the bucket index of sample value x, precomputed for the
	// low values almost every latency sample lands in (Fig 16's mass sits
	// far below smallBucketCap), turning the per-delivery bucket lookup
	// into one load. Derived from bounds — rebuilt on decode, never
	// serialized, and identical for identical geometry, so it is invisible
	// to wire bytes and DeepEqual alike.
	small []int32
}

// smallBucketCap bounds the direct-index bucket table.
const smallBucketCap = 4096

// smallCache shares the read-only tables across histograms: the geometry is
// a pure function of the constructor's max, and simulations build one
// histogram per run, so recomputing (and reallocating) 16KB per engine
// would be pure churn. NewLatencyHistogram geometries are fully determined
// by (bucket count, last bound), which is the key.
var smallCache sync.Map // smallKey -> []int32

type smallKey struct {
	n    int
	last int64
}

// smallIndex returns the bucket index of every sample value in
// [0, min(lastBound, smallBucketCap)), memoized per geometry.
func smallIndex(bounds []int64) []int32 {
	if len(bounds) == 0 {
		return nil
	}
	last := bounds[len(bounds)-1]
	key := smallKey{n: len(bounds), last: last}
	if tab, ok := smallCache.Load(key); ok {
		return tab.([]int32)
	}
	limit := int64(smallBucketCap)
	if last+1 < limit {
		limit = last + 1
	}
	small := make([]int32, limit)
	i := 0
	for x := int64(0); x < limit; x++ {
		for bounds[i] < x {
			i++
		}
		small[x] = int32(i)
	}
	smallCache.Store(key, small)
	return small
}

// DefaultHistogramMax is the largest latency in cycles the engine's
// delivery histogram resolves exactly. The windowed metrics observer uses
// the same bound, so its quantiles agree with sim.Result.
const DefaultHistogramMax = 1 << 20

// NewLatencyHistogram returns a histogram with geometric buckets from 1 up
// to max (inclusive) with ratio ~1.25.
func NewLatencyHistogram(max int64) *Histogram {
	bounds := latencyBounds(max)
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)), small: smallIndex(bounds)}
}

// latencyBounds is NewLatencyHistogram's geometry; UnmarshalBinary checks
// blobs by it.
func latencyBounds(max int64) []int64 {
	var bounds []int64
	b := int64(1)
	for b < max {
		bounds = append(bounds, b)
		nb := b + b/4
		if nb == b {
			nb = b + 1
		}
		b = nb
	}
	return append(bounds, max)
}

// Add records one sample.
func (h *Histogram) Add(x int64) {
	h.n++
	h.sum += x
	if x > h.max {
		h.max = x
	}
	if x >= 0 && x < int64(len(h.small)) {
		h.counts[h.small[x]]++
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= x })
	if i == len(h.bounds) {
		h.over++
		return
	}
	h.counts[i]++
}

// Count returns the total number of samples.
func (h *Histogram) Count() int64 { return h.n }

// Mean returns the mean sample value.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest sample value.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an approximate q-quantile (0 <= q <= 1) using the bucket
// upper bounds. It uses ceil-rank semantics: the result is the bucket
// holding the ceil(q*count)-th smallest sample, so Quantile(0.5) of two
// samples lands on the first (truncation would skip to the second whenever
// q*count is whole), and Quantile(0) / Quantile(1) are the buckets of the
// minimum and maximum.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.n
	if total == 0 {
		return 0
	}
	rank := CeilRank(q, total)
	max := h.max
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if b := h.bounds[i]; b < max {
				return b
			}
			return max
		}
	}
	return max
}

// Reset clears all samples while keeping the bucket geometry, so windowed
// consumers (telemetry.Metrics) can reuse one histogram per window instead
// of reallocating the bucket arrays.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.over = 0
	h.n, h.sum, h.max = 0, 0, 0
}

// Buckets invokes fn for every non-empty bucket with the bucket's upper
// bound and count, in ascending order, then once more with the overflow
// count (bound = -1) if any samples exceeded the histogram range.
func (h *Histogram) Buckets(fn func(upper int64, count int64)) {
	for i, c := range h.counts {
		if c > 0 {
			fn(h.bounds[i], c)
		}
	}
	if h.over > 0 {
		fn(-1, h.over)
	}
}

// CeilRank converts quantile q over n samples to a 1-based rank using
// ceil-rank semantics: the q-quantile is the ceil(q*n)-th smallest sample,
// clamped to [1, n]. This is the single quantile definition shared by
// Histogram.Quantile and the stage-latency histograms'
// obs.HistSnapshot.Quantile, so a p99 computed from a histogram (/metrics)
// and one computed from raw samples agree on the same data up to bucket
// resolution.
func CeilRank(q float64, n int64) int64 {
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}
