package stats

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// variance returns a's unbiased sample variance from its Welford m2.
func variance(a *Accumulator) float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// quantiles computes exact quantiles of an int64 sample slice under
// CeilRank, the oracle TestQuantileDefinitionShared holds Histogram.Quantile
// to. The input is sorted in place.
func quantiles(xs []int64, qs ...float64) []int64 {
	out := make([]int64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for i, q := range qs {
		out[i] = xs[CeilRank(q, int64(len(xs)))-1]
	}
	return out
}

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.Count() != 8 {
		t.Errorf("count %d", a.Count())
	}
	if a.Mean() != 5 {
		t.Errorf("mean %v", a.Mean())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("min/max %v/%v", a.Min(), a.Max())
	}
	// Population variance is 4; sample variance is 32/7.
	if got := variance(&a); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("variance %v", got)
	}
}

// TestAccumulatorMatchesNaive is a quick property against the two-pass
// formulas.
func TestAccumulatorMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var a Accumulator
		var sum float64
		for _, x := range clean {
			a.Add(x)
			sum += x
		}
		mean := sum / float64(len(clean))
		var m2 float64
		for _, x := range clean {
			m2 += (x - mean) * (x - mean)
		}
		naiveVar := m2 / float64(len(clean)-1)
		return math.Abs(a.Mean()-mean) < 1e-6*(1+math.Abs(mean)) &&
			math.Abs(variance(&a)-naiveVar) < 1e-6*(1+naiveVar)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantilesAndBuckets(t *testing.T) {
	h := NewLatencyHistogram(1 << 16)
	for i := int64(1); i <= 1000; i++ {
		h.Add(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Mean() != 500.5 {
		t.Errorf("mean %v", h.Mean())
	}
	q50 := h.Quantile(0.5)
	if q50 < 400 || q50 > 650 {
		t.Errorf("p50 %d outside bucketed tolerance", q50)
	}
	if h.Max() != 1000 {
		t.Errorf("max %d", h.Max())
	}
	var total int64
	prev := int64(0)
	h.Buckets(func(upper, count int64) {
		if upper >= 0 && upper <= prev {
			t.Errorf("buckets not ascending: %d after %d", upper, prev)
		}
		prev = upper
		total += count
	})
	if total != 1000 {
		t.Errorf("bucket total %d", total)
	}
}

// TestQuantileCeilRank pins the ceil-rank semantics: the q-quantile is the
// bucket of the ceil(q*count)-th smallest sample. The regression case is
// two samples, where truncation-based ranking returned the second sample
// for P50 (int64(0.5*2) = 1 sample skipped) instead of the first.
func TestQuantileCeilRank(t *testing.T) {
	// Buckets below 8 are exact (width 1), so expectations are precise.
	h := NewLatencyHistogram(1 << 10)
	h.Add(1)
	h.Add(5)
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("P50 of {1,5} = %d, want 1 (ceil-rank 1st sample)", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %d, want 1 (minimum's bucket)", got)
	}
	if got := h.Quantile(1); got != 5 {
		t.Errorf("Quantile(1) = %d, want 5 (maximum)", got)
	}
	if got := h.Quantile(0.75); got != 5 {
		t.Errorf("Quantile(0.75) = %d, want 5 (rank ceil(1.5)=2)", got)
	}

	single := NewLatencyHistogram(1 << 10)
	single.Add(7)
	for _, q := range []float64{0, 0.5, 1} {
		if got := single.Quantile(q); got != 7 {
			t.Errorf("Quantile(%v) of {7} = %d, want 7", q, got)
		}
	}

	// Quantiles never exceed the observed maximum even when the bucket's
	// upper bound does.
	capped := NewLatencyHistogram(1 << 10)
	capped.Add(9) // bucket bound 10
	if got := capped.Quantile(1); got != 9 {
		t.Errorf("Quantile(1) of {9} = %d, want the sample max 9", got)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewLatencyHistogram(100)
	h.Add(5000)
	saw := false
	h.Buckets(func(upper, count int64) {
		if upper == -1 && count == 1 {
			saw = true
		}
	})
	if !saw {
		t.Error("overflow bucket not reported")
	}
}

func TestQuantilesExact(t *testing.T) {
	xs := []int64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	qs := quantiles(xs, 0, 0.5, 1)
	if qs[0] != 1 || qs[1] != 5 || qs[2] != 9 {
		t.Errorf("quantiles %v", qs)
	}
	if got := quantiles(nil, 0.5); got[0] != 0 {
		t.Errorf("empty quantiles %v", got)
	}
}

// TestQuantileDefinitionShared pins Histogram.Quantile and quantiles to one
// quantile definition (ceil-rank: the q-quantile is the ceil(q*n)-th smallest
// sample). The samples stay in the histogram's width-1 bucket range (1..8) so
// the bucket upper bound IS the sample and the two implementations must agree
// exactly — a p99 computed from /metrics' histogram and one computed
// from raw latencies describe identical data identically.
//
// The regression row is q=0.99 over 10 samples: an earlier raw-sample helper truncated
// an index into the sorted slice (int(0.99*9) = 8 → the 9th sample) while the
// histogram's ceil-rank picks rank ceil(9.9) = 10 → the maximum.
func TestQuantileDefinitionShared(t *testing.T) {
	cases := []struct {
		name    string
		samples []int64
		q       float64
		want    int64
	}{
		{"p50 of 2 lands on 1st", []int64{1, 5}, 0.5, 1},
		{"p75 of 2 lands on 2nd", []int64{1, 5}, 0.75, 5},
		{"p99 of 10 is the max", []int64{1, 2, 3, 4, 5, 6, 7, 8, 8, 8}, 0.99, 8},
		{"p0 is the min", []int64{3, 1, 2}, 0, 1},
		{"p100 is the max", []int64{3, 1, 2}, 1, 3},
		{"p50 of odd count is the middle", []int64{1, 2, 3, 4, 5, 6, 7, 8, 5}, 0.5, 5},
	}
	for _, tc := range cases {
		h := NewLatencyHistogram(1 << 10)
		raw := make([]int64, len(tc.samples))
		copy(raw, tc.samples)
		for _, x := range tc.samples {
			h.Add(x)
		}
		hq := h.Quantile(tc.q)
		sq := quantiles(raw, tc.q)[0]
		if hq != sq {
			t.Errorf("%s: Histogram.Quantile(%v)=%d but quantiles=%d — definitions diverged",
				tc.name, tc.q, hq, sq)
		}
		if hq != tc.want {
			t.Errorf("%s: quantile %v = %d, want %d", tc.name, tc.q, hq, tc.want)
		}
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewLatencyHistogram(100)
	if q := h.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile %d", q)
	}
	if h.Max() != 0 || h.Mean() != 0 {
		t.Error("empty histogram stats should be zero")
	}
}

func TestJainIndexProperties(t *testing.T) {
	if JainIndex(nil) != 0 {
		t.Error("empty input should give 0")
	}
	if JainIndex([]float64{0, 0}) != 0 {
		t.Error("all-zero input should give 0")
	}
	if j := JainIndex([]float64{3, 3, 3, 3}); j < 0.999 {
		t.Errorf("equal values should give 1, got %v", j)
	}
	// One dominant value over n entries approaches 1/n.
	if j := JainIndex([]float64{100, 0, 0, 0}); j > 0.26 {
		t.Errorf("dominated distribution index %v, want ~0.25", j)
	}
	// Negative entries are ignored.
	if j := JainIndex([]float64{-5, 2, 2}); j < 0.999 {
		t.Errorf("negatives should be skipped, got %v", j)
	}
}

func TestFaultCountsAccounting(t *testing.T) {
	f := FaultCounts{Dropped: 3, Misrouted: 5, Misdelivered: 4, InjectBlocked: 2, HeldDeliveries: 7}
	if got := f.Lost(); got != 7 {
		t.Errorf("Lost() = %d, want 7 (drops + misdeliveries)", got)
	}
	if got := f.Total(); got != 10 {
		t.Errorf("Total() = %d, want 10", got)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(1, 0); got != "n/a" {
		t.Errorf("Percent(1,0) = %q", got)
	}
	if got := Percent(150, 200); got != "75.0%" {
		t.Errorf("Percent(150,200) = %q", got)
	}
}

// TestHistogramSmallIndexMatchesSearch pins the direct-index bucket table
// against the binary search it replaces, for every value it covers and the
// first values beyond it.
func TestHistogramSmallIndexMatchesSearch(t *testing.T) {
	for _, max := range []int64{16, 1 << 10, 1 << 20} {
		h := NewLatencyHistogram(max)
		search := func(x int64) int {
			return sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= x })
		}
		for x := int64(0); x < int64(len(h.small)); x++ {
			if int(h.small[x]) != search(x) {
				t.Fatalf("max=%d x=%d: small=%d search=%d", max, x, h.small[x], search(x))
			}
		}
		// Values past the table (and past the last bound) take the search
		// path; spot-check Add routes them identically by comparing two
		// histograms fed from both regimes.
		a, b := NewLatencyHistogram(max), NewLatencyHistogram(max)
		for _, x := range []int64{0, 1, max / 2, max - 1, max, max + 1, max * 3} {
			a.Add(x)
			b.Add(x)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("max=%d: histograms diverge", max)
		}
	}
}
