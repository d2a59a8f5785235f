package sim

import (
	"sync/atomic"
	"time"
)

// Progress is a live record of one or more runs, readable from other
// goroutines while they execute. Unlike an Observer it sees no event: the
// engine publishes its own totals into it on the branch it already takes
// every few thousand executed cycles (the context poll) and once when the
// run finishes, so attaching one changes no Result bit, keeps the idle skip
// armed and stays out of the result cache's key.
//
// Counters are published as deltas, so several runs may share one Progress
// (a sweep's rates): Cycles, Injected, Delivered, LatSum and InFlight are
// then sums over the runs. P50 and P99 are not summable; they are the
// cumulative quantiles of whichever run published last.
type Progress struct {
	// Cycles, Injected and Delivered are Result's counters as of the last
	// publish; after a finished run they equal the Result's.
	Cycles    atomic.Int64
	Injected  atomic.Int64
	Delivered atomic.Int64
	// InFlight counts the packets in flight in the runs still going: a
	// finished run takes its share back out.
	InFlight atomic.Int64
	// LatSum is the exact integer sum of delivered latencies in cycles, so
	// LatSum/Delivered is Result.AvgLatency once the run finishes.
	LatSum atomic.Int64
	P50    atomic.Int64
	P99    atomic.Int64
	// Start is the wall clock (UnixNano) of the first publish, when the
	// first run sharing the Progress executed its first cycle; 0 before.
	Start atomic.Int64
}

// published is what one run has added into its Progress so far.
type published struct {
	cycles, injected, delivered, inFlight, latSum int64
}

// publish brings the run's Progress up to its totals at cycle now, inFlight
// being the run's current share of in-flight packets.
func (e *engine) publish(now, inFlight int64) {
	p, d := e.opts.Progress, e.pub
	if p.Start.Load() == 0 {
		p.Start.CompareAndSwap(0, time.Now().UnixNano())
	}
	p.Cycles.Add(now - d.cycles)
	p.Injected.Add(e.res.Injected - d.injected)
	p.Delivered.Add(e.res.Delivered - d.delivered)
	p.InFlight.Add(inFlight - d.inFlight)
	p.LatSum.Add(e.latSum - d.latSum)
	p.P50.Store(e.res.Latency.Quantile(0.50))
	p.P99.Store(e.res.Latency.Quantile(0.99))
	e.pub = published{now, e.res.Injected, e.res.Delivered, inFlight, e.latSum}
}
