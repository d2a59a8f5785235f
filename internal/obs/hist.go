package obs

import (
	"sync/atomic"
	"time"

	"fasttrack/internal/stats"
)

// The stage-latency histograms share one fixed bucket geometry, spanning
// sub-millisecond SSE flushes to minute-long sweep jobs. A fixed layout
// (rather than per-histogram bounds) keeps DurationHist's zero value usable
// — no constructor, no lazy allocation, no lock — and makes every exported
// family directly comparable. The bounds are the documented contract
// (DESIGN.md §16); changing them is a dashboard-breaking change.
var histBounds = [...]time.Duration{
	10 * time.Microsecond,
	50 * time.Microsecond,
	100 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	5 * time.Second,
	10 * time.Second,
	30 * time.Second,
	60 * time.Second,
}

// numHistBuckets counts the finite buckets; one overflow (+Inf) bucket
// follows them.
const numHistBuckets = len(histBounds)

// HistBounds returns the shared bucket upper bounds (a copy).
func HistBounds() []time.Duration {
	return append([]time.Duration(nil), histBounds[:]...)
}

// DurationHist is a concurrency-safe fixed-bucket latency histogram: one
// atomic counter per bucket plus an exact int64 nanosecond sum, so the
// /metrics totals reconcile bit-exactly with the span log that produced
// the samples. The zero value is ready to use.
type DurationHist struct {
	counts [numHistBuckets + 1]atomic.Int64 // per-bucket; last is +Inf overflow
	count  atomic.Int64
	sumNS  atomic.Int64
}

// Observe records one duration. Negative durations (clock steps) clamp to
// zero so counters stay monotone.
func (h *DurationHist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < numHistBuckets && d > histBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

// HistSnapshot is a point-in-time copy of a DurationHist. Counts has one
// entry per finite bucket plus the overflow; Count and SumNS are the totals
// the Prometheus _count and _sum series expose.
type HistSnapshot struct {
	Counts [numHistBuckets + 1]int64
	Count  int64
	SumNS  int64
}

// Snapshot copies the histogram. Buckets are individually atomic: a
// mid-Observe snapshot may be skewed by in-progress samples, which is
// irrelevant at scrape granularity and exact once recording stops.
func (h *DurationHist) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNS = h.sumNS.Load()
	return s
}

// SumSeconds converts the exact nanosecond sum the way every exporter and
// reconciliation test must: float64(SumNS)/1e9, so both sides of a
// comparison perform the identical rounding.
func (s HistSnapshot) SumSeconds() float64 { return float64(s.SumNS) / 1e9 }

// Quantile returns the ceil-rank q-quantile (stats.CeilRank, the repo-wide
// quantile definition) as a bucket upper bound: the smallest bound whose
// cumulative count reaches that rank. Samples in the overflow bucket report
// the largest finite bound — the histogram cannot resolve beyond it.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := stats.CeilRank(q, s.Count)
	var cum int64
	for i := 0; i < numHistBuckets; i++ {
		cum += s.Counts[i]
		if cum >= rank {
			return histBounds[i]
		}
	}
	return histBounds[numHistBuckets-1]
}
