package sim

import (
	"sync/atomic"
	"time"

	"fasttrack/internal/noc"
)

// Progress is a live record of one or more runs, readable from other
// goroutines while they execute. Unlike an Observer it sees no event: the
// engine publishes its own totals into it on the branch it already takes
// every few thousand executed cycles (the context poll) and once when the
// run finishes, so attaching one changes no Result bit, keeps the idle skip
// armed and stays out of the result cache's key.
//
// Counters are published as deltas, so several runs may share one Progress
// (a sweep's rates): every counter, InFlight included, is then a sum over
// the runs. P50 and P99 are not summable; they are the cumulative quantiles
// of whichever run published last.
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

	// The network's own totals (Result.Counters): wire traversals by class,
	// true deflections by the wire class of the deflected input, express
	// denials and refused injection offers, so offers are Injected+Stalls.
	HopsLocal, HopsExpress       atomic.Int64
	DeflectLocal, DeflectExpress atomic.Int64
	Denied                       atomic.Int64
	Stalls                       atomic.Int64
	// Drops counts packets lost to faults (Result.Faults.Lost()) plus those
	// the retry layer abandoned; Retransmits counts its retries
	// (Result.Recovery).
	Drops       atomic.Int64
	Retransmits atomic.Int64

	// Start is the wall clock (UnixNano) of the first publish, when the
	// first run sharing the Progress executed its first cycle; 0 before.
	Start atomic.Int64
}

// totals is one run's summable counters, in Progress's field order.
type totals struct {
	cycles, injected, delivered, inFlight, latSum int64
	hopsLocal, hopsExpress                        int64
	deflectLocal, deflectExpress, denied, stalls  int64
	drops, retransmits                            int64
}

// totals reads the run's counters at cycle now, inFlight being its current
// share of in-flight packets.
func (e *engine) totals(now, inFlight int64) totals {
	c := e.net.Counters()
	t := totals{
		cycles: now, injected: e.res.Injected, delivered: e.res.Delivered,
		inFlight: inFlight, latSum: e.latSum,
		hopsLocal: c.ShortTraversals, hopsExpress: c.ExpressTraversals,
		denied: c.TotalExpressDenied(), stalls: c.InjectionStalls,
	}
	for p, n := range c.MisroutesByInput {
		if noc.Port(p).IsExpress() {
			t.deflectExpress += n
		} else {
			t.deflectLocal += n
		}
	}
	if e.aud != nil && e.aud.faulty != nil {
		t.drops = e.aud.faulty.FaultCounts().Lost()
	}
	if rr, ok := e.wl.(RecoveryReporter); ok {
		r := rr.RecoveryCounts()
		t.drops += r.Abandoned
		t.retransmits = r.Retries
	}
	return t
}

// publish brings the run's Progress up to its totals at cycle now.
func (e *engine) publish(now, inFlight int64) {
	p, d, t := e.opts.Progress, e.pub, e.totals(now, inFlight)
	if p.Start.Load() == 0 {
		p.Start.CompareAndSwap(0, time.Now().UnixNano())
	}
	p.Cycles.Add(t.cycles - d.cycles)
	p.Injected.Add(t.injected - d.injected)
	p.Delivered.Add(t.delivered - d.delivered)
	p.InFlight.Add(t.inFlight - d.inFlight)
	p.LatSum.Add(t.latSum - d.latSum)
	p.HopsLocal.Add(t.hopsLocal - d.hopsLocal)
	p.HopsExpress.Add(t.hopsExpress - d.hopsExpress)
	p.DeflectLocal.Add(t.deflectLocal - d.deflectLocal)
	p.DeflectExpress.Add(t.deflectExpress - d.deflectExpress)
	p.Denied.Add(t.denied - d.denied)
	p.Stalls.Add(t.stalls - d.stalls)
	p.Drops.Add(t.drops - d.drops)
	p.Retransmits.Add(t.retransmits - d.retransmits)
	p.P50.Store(e.res.Latency.Quantile(0.50))
	p.P99.Store(e.res.Latency.Quantile(0.99))
	e.pub = t
}
