// Package monitor is the live observability subsystem: where
// internal/telemetry records what happened for post-hoc analysis (CSV and
// Perfetto traces), monitor answers "what is happening right now" and "why
// was that run pathological" while the simulator is still running.
//
// It has three parts:
//
//   - Collector: a concurrency-safe telemetry.Observer that maintains
//     atomic counters (cycles, offered/accepted/delivered, in-flight,
//     latency quantiles, and the per-router telemetry.HopCounts block of
//     link hops, deflections and express denials) readable from other
//     goroutines at any instant.
//   - Server: an embeddable HTTP ops server exposing the Collector as
//     Prometheus text on /metrics, Go runtime internals on /debug/pprof and
//     /debug/vars, and a packet-forensics dump on /debug/flight.
//   - FlightRecorder: a bounded per-packet lifecycle recorder whose report
//     names the worst packets (full hop history) and the routers that
//     deflected them — the forensic layer behind the starvation watchdog.
//
// The CLIs attach these observers only on request: an ftsim or ftexp run
// without -http/-flight-recorder attaches none and pays only the single nil
// check per emission site that BenchmarkSimSaturationNopObserver budgets.
// The ftserve daemon attaches none to its jobs: their SSE metrics stream
// reads the engine-published sim.Progress, and the daemon uses this package
// only for its /metrics text.
package monitor

import (
	"sync"
	"sync/atomic"
	"time"

	"fasttrack/internal/noc"
	"fasttrack/internal/stats"
	"fasttrack/internal/telemetry"
)

// Collector is a telemetry.Observer whose state can be read concurrently
// while the simulation goroutines write it: scalar counters are atomics, the
// router events are the atomic telemetry.HopCounts block, and the latency
// histogram (for p50/p99) sits behind a mutex taken only on delivery. It
// deliberately keeps no per-packet state, so it is safe to leave attached
// for arbitrarily long runs, and several runs may share one Collector
// concurrently: its totals are then sums over the runs.
type Collector struct {
	// startNS is the wall-clock origin (UnixNano) stamped by the first
	// event; atomic because HTTP goroutines read it mid-run.
	startNS atomic.Int64

	// cycles counts completed cycles, one per OnCycleEnd, so it only grows
	// when runs share the Collector; for one run it ends at Result.Cycles,
	// because an attached observer turns the engine's idle skip off.
	// inFlight is the most recent population any run reported.
	cycles    atomic.Int64
	injected  atomic.Int64
	stalls    atomic.Int64
	delivered atomic.Int64
	drops     atomic.Int64
	retrans   atomic.Int64
	inFlight  atomic.Int64

	hops *telemetry.HopCounts

	// latSum accumulates delivery latencies in cycles (latencies are integer
	// cycles, so an integer sum is exact).
	latSum atomic.Int64

	mu   sync.Mutex
	hist *stats.Histogram
}

// NewCollector returns a Collector for a w×h network.
func NewCollector(w, h int) *Collector {
	return &Collector{
		hops: telemetry.NewHopCounts(w, h),
		hist: stats.NewLatencyHistogram(stats.DefaultHistogramMax),
	}
}

// markStarted stamps the wall-clock origin on the first event, so
// cycles-per-second reflects simulation time rather than process lifetime.
func (c *Collector) markStarted() {
	if c.startNS.Load() == 0 {
		c.startNS.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// OnInject implements telemetry.Observer.
func (c *Collector) OnInject(now int64, p *noc.Packet) {
	c.markStarted()
	c.injected.Add(1)
}

// OnInjectStall implements telemetry.Observer.
func (c *Collector) OnInjectStall(now int64, pe int) { c.stalls.Add(1) }

// OnDeliver implements telemetry.Observer.
func (c *Collector) OnDeliver(now int64, p *noc.Packet) {
	lat := now - p.Gen
	c.delivered.Add(1)
	c.latSum.Add(lat)
	c.mu.Lock()
	c.hist.Add(lat)
	c.mu.Unlock()
}

// OnHop implements telemetry.Observer.
func (c *Collector) OnHop(now int64, router int, port noc.Port, kind telemetry.HopKind, p *noc.Packet) {
	c.hops.Count(router, port, kind)
}

// OnDrop implements telemetry.Observer.
func (c *Collector) OnDrop(now int64, p *noc.Packet) { c.drops.Add(1) }

// OnRetransmit implements telemetry.Observer.
func (c *Collector) OnRetransmit(now int64, p *noc.Packet) { c.retrans.Add(1) }

// OnCycleEnd implements telemetry.Observer.
func (c *Collector) OnCycleEnd(now int64, inFlight int) {
	c.markStarted()
	c.cycles.Add(1)
	c.inFlight.Store(int64(inFlight))
}

// TelemetryKey implements telemetry.Keyer: a Collector's side effects (live
// metrics) must not be skipped by the result cache.
func (c *Collector) TelemetryKey() string { return "monitor" }

// Snapshot is a consistent-enough point-in-time copy of the collector: each
// field is individually atomic (scalars may be skewed by a few in-progress
// events, which is irrelevant at monitoring granularity, and totals are
// exact once the run ends).
type Snapshot struct {
	WallMS    int64 `json:"wall_ms"`
	Cycles    int64 `json:"cycles"`
	Injected  int64 `json:"injected"`
	Stalls    int64 `json:"stalls"`
	Delivered int64 `json:"delivered"`
	Drops     int64 `json:"drops"`
	Retrans   int64 `json:"retransmits"`
	// InFlight is the most recent in-flight population a run reported.
	InFlight int64 `json:"in_flight"`

	DeflectLocal   int64 `json:"deflect_local"`
	DeflectExpress int64 `json:"deflect_express"`
	Denied         int64 `json:"express_denied"`
	HopsLocal      int64 `json:"hops_local"`
	HopsExpress    int64 `json:"hops_express"`

	// LatSum is the cumulative delivery-latency sum in cycles; P50/P99 are
	// cumulative latency quantiles.
	LatSum int64 `json:"lat_sum"`
	P50    int64 `json:"p50"`
	P99    int64 `json:"p99"`

	W int `json:"w"`
	H int `json:"h"`
}

// Snapshot captures the collector's current state.
func (c *Collector) Snapshot() Snapshot {
	w, h := c.hops.Dims()
	s := Snapshot{
		Cycles:    c.cycles.Load(),
		Injected:  c.injected.Load(),
		Stalls:    c.stalls.Load(),
		Delivered: c.delivered.Load(),
		Drops:     c.drops.Load(),
		Retrans:   c.retrans.Load(),
		InFlight:  c.inFlight.Load(),

		LatSum: c.latSum.Load(),

		W: w, H: h,
	}
	for i := range w * h {
		r := c.hops.Router(i)
		s.HopsLocal += r.Local()
		s.HopsExpress += r.Express()
		s.DeflectLocal += r.DeflectLocal
		s.DeflectExpress += r.DeflectExpress
		s.Denied += r.Denied
	}
	c.mu.Lock()
	s.P50 = c.hist.Quantile(0.50)
	s.P99 = c.hist.Quantile(0.99)
	c.mu.Unlock()
	if ns := c.startNS.Load(); ns != 0 {
		s.WallMS = (time.Now().UnixNano() - ns) / 1e6
	}
	return s
}

// CyclesPerSec is the mean simulation speed since the first event.
func (s Snapshot) CyclesPerSec() float64 {
	if s.WallMS <= 0 {
		return 0
	}
	return float64(s.Cycles) / (float64(s.WallMS) / 1000)
}

// MeanLatency is the cumulative mean delivery latency in cycles.
func (s Snapshot) MeanLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.LatSum) / float64(s.Delivered)
}
