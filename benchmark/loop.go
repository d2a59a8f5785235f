package main

import (
	"fmt"
	"sort"
	"time"

	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
	"fasttrack/internal/stats"
)

// simStats is the part of a sim.Result the digests and cross-checks compare.
type simStats struct {
	Cycles, Injected, Delivered int64
	Worst, P50, P99             int64
	Counters                    noc.Counters
}

func statsOf(r sim.Result) simStats {
	return simStats{
		Cycles: r.Cycles, Injected: r.Injected, Delivered: r.Delivered,
		Worst: r.WorstLatency, P50: r.P50, P99: r.P99, Counters: r.Counters,
	}
}

// timedEvery is the phase-timing sampling period: one cycle in timedEvery
// carries the five clock reads. Reading the clock costs tens of nanoseconds
// here, more than a whole idle cycle, so timing every cycle would measure
// the timer.
const timedEvery = 64

// clockCostNS is what one pair of adjacent clock reads measures with nothing
// between them; it is subtracted from every timed phase.
var clockCostNS = func() float64 {
	d := make([]float64, 1001)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0).Nanoseconds())
	}
	sort.Float64s(d)
	return d[len(d)/2]
}()

// phases is the external loop's account of one job.
type phases struct {
	simStats
	// Exact counts over every cycle.
	idleCycles  int64 // no offer and nothing in flight
	inflightSum int64 // sum over cycles of InFlight() after Step
	// Sampled timings: totals over the timed cycles only.
	timedCycles, timedPkts               int64
	offerNS, stepNS, injectNS, deliverNS float64
}

// perCycle scales a sampled phase total to nanoseconds per cycle.
func (p *phases) perCycle(ns float64) float64 {
	if p.timedCycles == 0 {
		return 0
	}
	return ns / float64(p.timedCycles)
}

// phaseLoop drives net against wl with the same per-cycle protocol as the
// simulator's own engine — Tick, ActivePEs, Pending, Offer; Step; Accepted,
// Injected; Delivered, statistics, wl.Delivered — through the public
// noc.Network and sim.Workload interfaces only, reading the clock at the four
// phase boundaries of every timedEvery-th cycle. It must reproduce sim.Run's
// Cycles, Injected, Delivered and WorstLatency exactly for the same job; the
// caller checks that it does.
func phaseLoop(net noc.Network, wl sim.Workload, phase int64) (phases, error) {
	const maxCycles = 4 << 20 // sim.Options' default bound
	active, ok := wl.(sim.ActiveSet)
	if !ok {
		return phases{}, fmt.Errorf("workload %T does not implement sim.ActiveSet", wl)
	}
	var (
		ph      phases
		width   = net.Width()
		offered = make([]bool, net.NumPEs())
		hist    = stats.NewLatencyHistogram(1 << 20)
		perSrc  = make([]stats.Accumulator, net.NumPEs())
		live    []int

		t0, t1, t2, t3 time.Time
	)
	var now int64
	for now = 0; now < maxCycles; now++ {
		timed := (now+phase)%timedEvery == 0
		if timed {
			t0 = time.Now()
		}
		wl.Tick(now)
		live = active.ActivePEs(live[:0])
		anyOffer := false
		for _, pe := range live {
			p, ok := wl.Pending(pe, now)
			offered[pe] = ok
			if ok {
				net.Offer(pe, p)
				anyOffer = true
			}
		}
		if !anyOffer && net.InFlight() == 0 {
			if wl.Done() {
				break
			}
			ph.idleCycles++
		}
		if timed {
			t1 = time.Now()
		}

		net.Step(now)
		if timed {
			t2 = time.Now()
		}

		for _, pe := range live {
			if offered[pe] && net.Accepted(pe) {
				wl.Injected(pe, now)
				ph.Injected++
			}
		}
		if timed {
			t3 = time.Now()
		}

		delivered := net.Delivered()
		for _, p := range delivered {
			lat := now - p.Gen
			hist.Add(lat)
			perSrc[noc.PEIndex(p.Src, width)].Add(float64(lat))
			ph.Worst = max(ph.Worst, lat)
			ph.Delivered++
			wl.Delivered(p, now)
		}
		if timed {
			t4 := time.Now()
			ph.timedCycles++
			ph.timedPkts += int64(len(delivered))
			ph.offerNS += max(float64(t1.Sub(t0).Nanoseconds())-clockCostNS, 0)
			ph.stepNS += max(float64(t2.Sub(t1).Nanoseconds())-clockCostNS, 0)
			ph.injectNS += max(float64(t3.Sub(t2).Nanoseconds())-clockCostNS, 0)
			ph.deliverNS += max(float64(t4.Sub(t3).Nanoseconds())-clockCostNS, 0)
		}
		ph.inflightSum += int64(net.InFlight())
	}
	ph.Cycles = now
	ph.P50, ph.P99 = hist.Quantile(0.50), hist.Quantile(0.99)
	ph.Counters = *net.Counters()
	return ph, nil
}
