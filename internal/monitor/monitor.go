// Package monitor is the live observability subsystem: where
// internal/telemetry records what happened for post-hoc analysis (CSV,
// JSONL, Chrome traces), monitor answers "what is happening right now" and
// "why was that run pathological" while the simulator is still running.
//
// It has three parts:
//
//   - Collector: a concurrency-safe telemetry.Observer that maintains
//     atomic counters (cycles, offered/accepted/delivered, in-flight,
//     deflections split by wire class, per-router link hops, latency
//     quantiles) readable from other goroutines at any instant.
//   - Server: an embeddable HTTP ops server exposing the Collector as
//     Prometheus text on /metrics, Go runtime internals on /debug/pprof and
//     /debug/vars, a packet-forensics dump on /debug/flight, and /live — a
//     self-contained HTML page fed by a Server-Sent-Events stream that
//     renders a live NxN link-utilization heatmap with throughput and
//     latency sparklines.
//   - FlightRecorder: a bounded per-packet lifecycle recorder whose report
//     names the worst packets (full hop history) and the routers that
//     deflected them — the forensic layer behind the starvation watchdog.
//
// Everything here is opt-in: a run without -http/-flight-recorder attaches
// no observer and pays nothing (the single nil check per emission site that
// BenchmarkSimSaturationNopObserver budgets).
package monitor

import (
	"sync"
	"sync/atomic"
	"time"

	"fasttrack/internal/noc"
	"fasttrack/internal/stats"
)

// Collector is a telemetry.Observer whose state can be read concurrently
// while the simulation goroutine is writing it: scalar counters are
// atomics, per-router link counters are an atomic array, and the latency
// histogram (for p50/p99) sits behind a mutex taken only on delivery.
// It deliberately keeps no per-packet state, so it is safe to leave
// attached for arbitrarily long runs.
type Collector struct {
	w, h int

	// startNS is the wall-clock origin (UnixNano) stamped by the first
	// event; atomic because HTTP goroutines read it mid-run.
	startNS atomic.Int64

	cycles    atomic.Int64
	injected  atomic.Int64
	stalls    atomic.Int64
	delivered atomic.Int64
	drops     atomic.Int64
	retrans   atomic.Int64
	inFlight  atomic.Int64

	deflectLocal   atomic.Int64
	deflectExpress atomic.Int64
	denied         atomic.Int64
	hopsLocal      atomic.Int64
	hopsExpress    atomic.Int64

	// linkLocal/linkExpress[router] count hops leaving that router, by wire
	// class — the live heatmap's raw data.
	linkLocal   []atomic.Int64
	linkExpress []atomic.Int64

	// latSum accumulates delivery latencies in cycles (latencies are integer
	// cycles, so an integer sum is exact).
	latSum atomic.Int64

	mu   sync.Mutex
	hist *stats.Histogram

	done atomic.Bool
}

// NewCollector returns a Collector for a w×h network.
func NewCollector(w, h int) *Collector {
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	n := w * h
	return &Collector{
		w: w, h: h,
		linkLocal:   make([]atomic.Int64, n),
		linkExpress: make([]atomic.Int64, n),
		hist:        stats.NewLatencyHistogram(stats.DefaultHistogramMax),
	}
}

// Dims returns the network dimensions the collector was built for.
func (c *Collector) Dims() (w, h int) { return c.w, c.h }

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
func (c *Collector) OnHop(now int64, router int, out noc.Port, p *noc.Packet) {
	c.hopsLocal.Add(1)
	if router >= 0 && router < len(c.linkLocal) {
		c.linkLocal[router].Add(1)
	}
}

// OnExpressHop implements telemetry.Observer.
func (c *Collector) OnExpressHop(now int64, router int, out noc.Port, p *noc.Packet) {
	c.hopsExpress.Add(1)
	if router >= 0 && router < len(c.linkExpress) {
		c.linkExpress[router].Add(1)
	}
}

// OnDeflect implements telemetry.Observer; the split follows the input
// port's wire class (a deflection suffered on the express plane vs a local
// one — the distinction behind the paper's Fig 18 discussion).
func (c *Collector) OnDeflect(now int64, router int, in noc.Port, p *noc.Packet) {
	if in.IsExpress() {
		c.deflectExpress.Add(1)
	} else {
		c.deflectLocal.Add(1)
	}
}

// OnExpressDenied implements telemetry.Observer.
func (c *Collector) OnExpressDenied(now int64, router int, in noc.Port, p *noc.Packet) {
	c.denied.Add(1)
}

// OnDrop implements telemetry.Observer.
func (c *Collector) OnDrop(now int64, p *noc.Packet) { c.drops.Add(1) }

// OnRetransmit implements telemetry.Observer.
func (c *Collector) OnRetransmit(now int64, p *noc.Packet) { c.retrans.Add(1) }

// OnCycleEnd implements telemetry.Observer.
func (c *Collector) OnCycleEnd(now int64, inFlight int) {
	c.markStarted()
	c.cycles.Store(now + 1)
	c.inFlight.Store(int64(inFlight))
}

// MarkDone records that the run has finished; the live page shows it and
// stops expecting progress.
func (c *Collector) MarkDone() { c.done.Store(true) }

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
	InFlight  int64 `json:"in_flight"`

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

	// LinkLocal/LinkExpress are cumulative per-router hop counts
	// (index y*W+x).
	LinkLocal   []int64 `json:"link_local"`
	LinkExpress []int64 `json:"link_express"`

	W    int  `json:"w"`
	H    int  `json:"h"`
	Done bool `json:"done"`
}

// Snapshot captures the collector's current state.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Cycles:    c.cycles.Load(),
		Injected:  c.injected.Load(),
		Stalls:    c.stalls.Load(),
		Delivered: c.delivered.Load(),
		Drops:     c.drops.Load(),
		Retrans:   c.retrans.Load(),
		InFlight:  c.inFlight.Load(),

		DeflectLocal:   c.deflectLocal.Load(),
		DeflectExpress: c.deflectExpress.Load(),
		Denied:         c.denied.Load(),
		HopsLocal:      c.hopsLocal.Load(),
		HopsExpress:    c.hopsExpress.Load(),

		LatSum: c.latSum.Load(),

		LinkLocal:   make([]int64, len(c.linkLocal)),
		LinkExpress: make([]int64, len(c.linkExpress)),

		W: c.w, H: c.h,
		Done: c.done.Load(),
	}
	for i := range c.linkLocal {
		s.LinkLocal[i] = c.linkLocal[i].Load()
		s.LinkExpress[i] = c.linkExpress[i].Load()
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
