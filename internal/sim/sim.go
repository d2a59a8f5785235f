// Package sim drives a noc.Network cycle by cycle against a workload and
// collects the measurements the paper reports: sustained injection rate,
// average and worst-case packet latency, latency histograms, link-usage and
// deflection counters, and workload completion time.
//
// The engine's per-cycle protocol matches noc.Network: the workload offers
// at most one packet per PE, the network steps, accepted offers are consumed
// and deliveries are fed back to the workload (dependency-driven traces use
// this to unlock later sends).
package sim

import (
	"context"
	"fmt"
	"math"

	"fasttrack/internal/noc"
	"fasttrack/internal/stats"
	"fasttrack/internal/telemetry"
)

// Version tags the cycle-level semantics of the engine. The content-addressed
// result cache (internal/runner) folds it into every cache key, so persisted
// results are invalidated whenever the simulator's behaviour changes. Bump it
// on any change that can alter a Result bit for identical inputs (stepping
// order, workload protocol, statistics definitions, histogram geometry).
const Version = "ft-sim/4"

// Workload produces the packets a simulation injects and observes delivery.
// Implementations: traffic.SynthView (statistical patterns, built by
// traffic.NewSynthetic) and trace.Stream (application communication traces).
type Workload interface {
	// Tick runs once per cycle before offers are gathered.
	Tick(now int64)
	// Pending returns the packet PE pe wants to inject this cycle, if any.
	// The same packet must be returned every cycle until Injected is called
	// for it (offers that stall are retried).
	Pending(pe int, now int64) (noc.Packet, bool)
	// Injected reports that the pending packet at pe entered the network.
	Injected(pe int, now int64)
	// Delivered reports that p reached its destination PE.
	Delivered(p noc.Packet, now int64)
	// Done reports that the workload will produce no further packets.
	Done() bool
}

// ActiveSet is optionally implemented by workloads that can cheaply
// enumerate the PEs which may have a pending packet this cycle. When a
// workload implements it, Run polls Pending only on those PEs instead of
// scanning all N² every cycle — the dominant engine cost at the
// low-injection-rate sweep points where almost every PE is idle.
//
// The contract: after Tick, every PE for which Pending would return ok must
// appear in the returned set (a superset is fine, duplicates are not), and
// the enumeration must be a deterministic function of the workload's
// history so repeated runs replay identically. The fast path is bit-exact
// with the full scan because per-PE offer operations are independent;
// Options.Engine = EngineDense selects the reference scan for equivalence
// testing.
type ActiveSet interface {
	// ActivePEs appends the live PE indices to buf and returns it.
	ActivePEs(buf []int) []int
}

// EventWorkload is optionally implemented by workloads that can predict when
// their next generation event fires (traffic.SynthView is the canonical
// implementation: Bernoulli generation is open-loop, so the next arrival is
// a pure function of workload state). Run uses it to fast-forward across
// provably idle stretches — cycles where the workload has nothing queued,
// nothing is in flight, and Tick cannot enqueue anything — instead of
// stepping them one by one.
type EventWorkload interface {
	// NextEventCycle returns the earliest cycle > now at which Tick can
	// enqueue new work, or math.MaxInt64 when generation is finished.
	NextEventCycle(now int64) int64
	// QueueEmpty reports that no PE currently holds a queued packet.
	QueueEmpty() bool
}

// StableHead is a marker (never called) declared by workloads whose per-PE
// source queue is strictly FIFO and dequeued only by Injected: once Pending(pe)
// returns a packet it returns that packet, bit for bit, every later cycle until
// Injected(pe), and pe stays in the ActiveSet meanwhile. That is stronger than
// Workload's retry rule — a trace.Stream head can be displaced by a lower-index
// event that becomes ready the same cycle — and it lets the engine present the
// packet once, as a standing offer (holder), instead of rebuilding and
// re-offering it every stalled cycle. Decorators that reorder, delay or
// withdraw offers (regulate, reliability) must not declare it.
type StableHead interface {
	StableHead()
}

// holder is the fabric kernel's standing-offer port (fabric.Kernel.Hold): the
// offer stays latched across refusals until accepted. Wrappers that gate or
// rewrite offers per cycle (faults, multichannel) deliberately lack it.
type holder interface {
	Hold(pe int, p noc.Packet)
}

// ShardableWorkload is optionally implemented by workloads whose generation
// state can be partitioned by PE range, so the sharded engine can tick and
// enumerate each shard's PEs on that shard's worker. The contract mirrors
// ActiveSet's: the packets produced (contents, IDs, order per PE) must be
// bit-identical to a sequential Tick, and Injected must be safe to call
// concurrently for PEs owned by different shards. traffic.SynthView is the
// canonical implementation.
type ShardableWorkload interface {
	Workload
	ActiveSet
	// ConfigureShards repartitions the PE space so shard k owns PEs
	// [bounds[k], bounds[k+1]). It reports false — leaving the workload
	// unchanged — if bounds is not a partition of [0, NumPEs).
	ConfigureShards(bounds []int) bool
	// TickShard runs shard k's share of Tick. Calls for distinct k may run
	// concurrently.
	TickShard(k int, now int64)
	// ActiveShard appends shard k's live PEs to buf, like ActivePEs but
	// range-restricted. Calls for distinct k may run concurrently.
	ActiveShard(k int, buf []int) []int
}

// Result summarizes one simulation run.
type Result struct {
	// Cycles is the makespan: the cycle count until the last delivery (or
	// the configured limit).
	Cycles int64
	// Injected and Delivered count packets.
	Injected  int64
	Delivered int64
	// SustainedRate is delivered packets per cycle per PE — the paper's
	// "sustained rate" axis.
	SustainedRate float64
	// AvgLatency and WorstLatency are in cycles, measured from packet
	// generation (source queueing included) to client delivery.
	AvgLatency   float64
	WorstLatency int64
	// P50 and P99 latency quantiles from the histogram.
	P50, P99 int64
	// Latency is the full latency histogram (the paper's Fig 16).
	Latency *stats.Histogram
	// PerSource[pe] accumulates latencies of packets sourced at pe, for
	// fairness analysis (deflection NoCs can favour some positions).
	PerSource []stats.Accumulator
	// Counters is a copy of the network's event counters at the end.
	Counters noc.Counters
	// TimedOut reports the run hit MaxCycles before the workload drained.
	TimedOut bool
	// Converged reports that the run ended early because the windowed
	// throughput/latency stationarity test (Options.ConvergeWindow) passed;
	// the workload may not have drained.
	Converged bool
	// Faults counts injected faults when the network is wrapped by a fault
	// injector (internal/faults); zero otherwise.
	Faults stats.FaultCounts
	// Recovery summarizes the resilient-delivery layer when the workload is
	// wrapped by internal/reliability; zero otherwise.
	Recovery stats.RecoveryCounts
}

// Engine selects which of the two bit-exact simulation paths a run uses.
type Engine uint8

const (
	// EngineSparse is the optimized production path: occupancy-bitset router
	// stepping inside the networks plus the ActiveSet offer fast path in the
	// engine. It is the zero value and the default.
	EngineSparse Engine = iota
	// EngineDense is the straight-line reference path: dense array stepping
	// inside the networks (every router input examined every cycle) and a
	// full Pending scan over all PEs. The golden equivalence tests hold the
	// two engines to byte-identical Results.
	EngineDense
)

// String returns the engine name used in logs and cache keys.
func (e Engine) String() string {
	if e == EngineDense {
		return "dense"
	}
	return "sparse"
}

// denseSelectable is implemented by networks that carry both stepping paths.
// Run switches the network to match Options.Engine; networks without the
// knob (external implementations) always run their only path.
type denseSelectable interface {
	SetDense(bool)
}

// Options configures a run.
type Options struct {
	// MaxCycles bounds the run; 0 means a generous default.
	MaxCycles int64
	// StallLimit aborts with an error if no packet is injected or delivered
	// for this many consecutive cycles while work remains. It is a livelock
	// tripwire; 0 means a generous default.
	StallLimit int64
	// HistogramMax is the largest latency the histogram resolves exactly;
	// 0 means stats.DefaultHistogramMax (1<<20 cycles).
	HistogramMax int64
	// CheckConservation audits packet conservation every cycle and checks
	// each delivery against its injected copy (no loss, duplication,
	// corruption, or misdelivery). Costs O(1) map work per packet; tests
	// should enable it, sweeps may leave it off.
	CheckConservation bool
	// MaxPacketAge, when positive, is a starvation watchdog: the run fails
	// fast with ErrStarvation and a diagnostic snapshot if any packet stays
	// in flight longer than this many cycles. 0 disables the watchdog.
	MaxPacketAge int64
	// Engine selects the simulation path: EngineSparse (default, optimized)
	// or EngineDense (the straight-line reference both networks and engine
	// fall back to). The two are bit-exact; EngineDense exists for the golden
	// equivalence tests and the BenchmarkSim*Reference speedup pairs.
	Engine Engine
	// Shards, when >1, partitions the torus into that many row-band shards
	// and steps them on parallel workers (the network must implement
	// noc.ShardedNetwork; EngineDense is incompatible). Results are bit-exact
	// with the sequential engine — sharding is a wall-clock knob, never a
	// semantics knob — so cache keys ignore it. 0 and 1 select the
	// sequential path; values above the row count are clamped.
	Shards int
	// Observer, when non-nil, receives cycle-level telemetry events
	// (injections, hops, deflections, deliveries — see internal/telemetry).
	// Run attaches it to the network and to every layer of the workload
	// decorator chain that implements telemetry.Observable. nil keeps every
	// emission site on its single-nil-check disabled path.
	Observer telemetry.Observer
	// Context, when non-nil, is polled every few thousand cycles so a sweep
	// scheduler (internal/runner) can cancel in-flight sibling simulations
	// once one job fails; Run returns the context's error. nil never cancels.
	Context context.Context
	// ConvergeWindow, when positive, arms the opt-in early-exit stationarity
	// test: every ConvergeWindow cycles the windowed delivery rate and mean
	// latency are compared against the previous window, and once both change
	// by less than ConvergeTol (relative) for convergePatience consecutive
	// windows the run stops with Result.Converged set. The default (0) keeps
	// the fixed-budget path, so golden bit-exactness is untouched. Intended
	// for saturation-throughput measurements where steady state arrives long
	// before the packet quota drains.
	ConvergeWindow int64
	// ConvergeTol is the relative per-window change threshold; 0 means 0.01.
	ConvergeTol float64
}

// convergePatience is the number of consecutive stationary windows the
// convergence early exit requires.
const convergePatience = 3

func (o Options) withDefaults() Options {
	if o.MaxCycles == 0 {
		o.MaxCycles = 4 << 20
	}
	if o.StallLimit == 0 {
		o.StallLimit = 1 << 16
	}
	if o.HistogramMax == 0 {
		o.HistogramMax = stats.DefaultHistogramMax
	}
	if o.ConvergeWindow > 0 && o.ConvergeTol == 0 {
		o.ConvergeTol = 0.01
	}
	return o
}

// relDelta is the relative change between two window statistics, symmetric
// in its arguments and 0 when both are 0.
func relDelta(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// convergence is the windowed stationarity detector. It consumes the window
// points produced by telemetry.WindowTracker (the shared window bookkeeping,
// so the detector and the Metrics observer always agree on boundaries and
// statistics) and reports when the run has reached steady state.
//
// The delivery rate must be stable, and the windowed mean latency must be
// *trend* stationary: either flat (below saturation) or growing by a stable
// amount per window (at saturation the measured latency includes source
// queueing, which grows linearly for as long as the quota lasts — a
// flat-latency criterion would never pass there).
type convergence struct {
	tol float64

	started int
	streak  int

	prevRate, prevLat, prevLatDelta float64
}

// observe folds in one completed window and reports whether the run has been
// stationary for convergePatience windows in a row.
func (c *convergence) observe(wp telemetry.WindowPoint) bool {
	latDelta := wp.MeanLatency - c.prevLat
	if c.started >= 2 && wp.TotalDelivered > 0 {
		slopeStable := math.Abs(latDelta-c.prevLatDelta) <= c.tol*math.Max(wp.MeanLatency, 1)
		if relDelta(wp.Rate, c.prevRate) < c.tol && slopeStable {
			c.streak++
		} else {
			c.streak = 0
		}
	}
	c.started++
	c.prevRate, c.prevLat, c.prevLatDelta = wp.Rate, wp.MeanLatency, latDelta
	return c.streak >= convergePatience
}

// attachObserver hands obs to the network and to every layer of the workload
// decorator chain that can hold one.
func attachObserver(net noc.Network, wl Workload, obs telemetry.Observer) {
	if o, ok := net.(telemetry.Observable); ok {
		o.SetObserver(obs)
	}
	for wl != nil {
		if o, ok := wl.(telemetry.Observable); ok {
			o.SetObserver(obs)
		}
		u, ok := wl.(WorkloadUnwrapper)
		if !ok {
			break
		}
		wl = u.Unwrap()
	}
}

// Run drives net against wl until the workload drains or a limit is hit.
// With Options.Shards > 1 the network steps shard-parallel (see shard.go);
// otherwise one engine loop runs it on the calling goroutine (engine.run).
// The Result is bit-exact either way.
func Run(net noc.Network, wl Workload, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if opts.Shards > 1 {
		return runSharded(net, wl, opts)
	}
	return newEngine(net, wl, opts).run()
}

// run is the sequential driver: engine.cycle once per cycle of the virtual
// clock until the run ends.
//
// Idle fast-forward: when the workload is an EventWorkload and nothing needs
// to see every cycle (no auditor, observer or convergence window, nor the
// dense reference engine), an empty network with an empty source queue and an
// undrained workload jumps straight to the next generation event (or the
// cycle budget). Every skipped cycle would tick nothing, offer nothing, step
// nothing (noc.Network.Step's idle contract) and reset the watchdog, so
// lastProgress lands where the last no-op cycle would have left it. InFlight
// is tested first: it is the cheapest probe and fails on almost every busy
// cycle.
func (e *engine) run() (Result, error) {
	budget := e.opts.MaxCycles
	ev, skip := e.wl.(EventWorkload)
	skip = skip && e.opts.Engine == EngineSparse && e.aud == nil && e.obs == nil && e.opts.ConvergeWindow <= 0
	for now := int64(0); ; {
		if skip && e.net.InFlight() == 0 && ev.QueueEmpty() && !e.wl.Done() {
			if target := min(ev.NextEventCycle(now), budget); target > now {
				e.lastProgress = target - 1
				now = target
			}
		}
		if now >= budget {
			return e.finish(now)
		}
		if err := e.pollCtx(); err != nil {
			return e.res, err
		}
		cs, err := e.cycle(now)
		if err != nil {
			return e.res, err
		}
		if cs == cycleDrained {
			return e.finish(now)
		}
		now++ // this cycle completed in full
		if cs == cycleConverged || now >= budget {
			return e.finish(now)
		}
	}
}

// engine is one run's mutable state, shared by the sequential and sharded
// drivers. The per-cycle protocol is decomposed into phase methods —
// tick/offer, step, inject feedback, deliver, cycle-end bookkeeping — so
// the sharded driver can replace individual phases with fan-out versions
// while every scalar rule (watchdog, convergence, result finalization)
// stays in exactly one place.
type engine struct {
	net  noc.Network
	wl   Workload
	opts Options
	res  Result

	numPE int
	width int

	offered    []bool
	offeredPkt []noc.Packet
	// hold is set when the network is a holder and the workload StableHead;
	// nil (always, under EngineDense: the reference) keeps offers one-cycle.
	// A standing offer keeps offered[pe] and offeredPkt[pe] set from the cycle
	// it is presented until injectPE sees it accepted.
	hold holder
	aud  *auditor
	obs  telemetry.Observer
	// track mirrors accepted offers for the auditor and the observer;
	// without either consumer the copy is skipped in the hot loop.
	track    bool
	fast     bool
	activeWL ActiveSet
	live     []int

	// latSum accumulates delivery latencies as an integer so per-shard
	// partial sums merge to the exact sequential total (int64 addition is
	// associative; float64 addition is not).
	latSum       int64
	lastProgress int64
	// executed counts cycles actually run, unlike the skippable virtual clock.
	executed int64

	// Convergence-window state (inert when ConvergeWindow is 0).
	convWin telemetry.WindowTracker
	conv    convergence
}

func newEngine(net noc.Network, wl Workload, opts Options) *engine {
	e := &engine{
		net: net, wl: wl, opts: opts,
		res:     Result{Latency: stats.NewLatencyHistogram(opts.HistogramMax)},
		numPE:   net.NumPEs(),
		width:   net.Width(),
		aud:     newAuditor(net, opts),
		obs:     opts.Observer,
		convWin: telemetry.WindowTracker{W: opts.ConvergeWindow},
		conv:    convergence{tol: opts.ConvergeTol},
	}
	e.res.PerSource = make([]stats.Accumulator, e.numPE)
	e.offered = make([]bool, e.numPE)
	e.offeredPkt = make([]noc.Packet, e.numPE)
	if e.obs != nil {
		attachObserver(net, wl, e.obs)
	}
	if sd, ok := net.(denseSelectable); ok {
		sd.SetDense(opts.Engine == EngineDense)
	}
	e.activeWL, e.fast = wl.(ActiveSet)
	if opts.Engine == EngineDense {
		e.fast = false
	} else if _, ok := wl.(StableHead); ok {
		e.hold, _ = net.(holder)
	}
	e.track = e.aud != nil || e.obs != nil
	return e
}

// pollCtx checks for sweep-scheduler cancellation every few thousand executed
// cycles, starting with the first so an already-cancelled context returns
// before any work. It counts executed cycles rather than testing the virtual
// clock because an idle fast-forward jumps the clock over any fixed multiple.
func (e *engine) pollCtx() error {
	e.executed++
	if e.opts.Context != nil && e.executed&4095 == 1 {
		return e.opts.Context.Err()
	}
	return nil
}

// offerPE presents pe's pending packet to the network; reports whether one
// was offered. Touches only per-PE state, so the sharded driver calls it
// concurrently for PEs owned by different shards.
func (e *engine) offerPE(pe int, now int64) bool {
	if e.hold != nil && e.offered[pe] {
		return true // refused last cycle and still latched in the network
	}
	p, ok := e.wl.Pending(pe, now)
	e.offered[pe] = ok
	if !ok {
		return false
	}
	if e.track {
		e.offeredPkt[pe] = p
	}
	if e.hold != nil {
		e.hold.Hold(pe, p)
	} else {
		e.net.Offer(pe, p)
	}
	return true
}

// phaseOffer gathers this cycle's offers, via the ActiveSet fast path when
// available. Per-PE offer operations are independent, so the fast path is
// bit-exact with the full scan (golden_test.go holds the two to
// byte-identical Results).
func (e *engine) phaseOffer(now int64) bool {
	anyOffer := false
	if e.fast {
		e.live = e.activeWL.ActivePEs(e.live[:0])
		for _, pe := range e.live {
			if e.offerPE(pe, now) {
				anyOffer = true
			}
		}
	} else {
		for pe := 0; pe < e.numPE; pe++ {
			if e.offerPE(pe, now) {
				anyOffer = true
			}
		}
	}
	return anyOffer
}

// injectPE consumes pe's offer if the network accepted it, reporting whether
// an injection happened. The caller counts successes into Result.Injected —
// kept out of here so the sharded driver can run this concurrently for PEs
// of different shards (workload Injected is shard-safe by the
// ShardableWorkload contract) and tally per shard.
func (e *engine) injectPE(pe int, now int64) bool {
	if !e.offered[pe] {
		return false
	}
	if !e.net.Accepted(pe) {
		if e.obs != nil {
			e.obs.OnInjectStall(now, pe)
		}
		return false
	}
	e.offered[pe] = false // releases a standing offer's latch
	e.wl.Injected(pe, now)
	if e.aud != nil {
		e.aud.onInject(e.offeredPkt[pe], now)
	}
	if e.obs != nil {
		e.obs.OnInject(now, &e.offeredPkt[pe])
	}
	return true
}

// phaseInjectFeedback relays the network's accept decisions back to the
// workload for every PE that offered this cycle.
func (e *engine) phaseInjectFeedback(now int64) bool {
	progress := false
	if e.fast {
		for _, pe := range e.live {
			if e.injectPE(pe, now) {
				e.res.Injected++
				progress = true
			}
		}
	} else {
		for pe := 0; pe < e.numPE; pe++ {
			if e.injectPE(pe, now) {
				e.res.Injected++
				progress = true
			}
		}
	}
	return progress
}

// deliverStats folds one delivered packet into the latency statistics.
func (e *engine) deliverStats(p *noc.Packet, lat int64) {
	e.res.Latency.Add(lat)
	e.res.PerSource[noc.PEIndex(p.Src, e.width)].Add(float64(lat))
	e.latSum += lat
	if lat > e.res.WorstLatency {
		e.res.WorstLatency = lat
	}
	e.res.Delivered++
}

// errNegativeLatency builds the invariant error for a delivery that predates
// its own generation.
func (e *engine) errNegativeLatency(p *noc.Packet, now int64) error {
	return &InvariantError{
		Err: ErrCorrupt, Cycle: now,
		Detail:   fmt.Sprintf("packet %d delivered before generation (gen=%d)", p.ID, p.Gen),
		Snapshot: e.aud.snapshot(now),
	}
}

// phaseDeliver processes this cycle's deliveries: audit, statistics,
// observer and workload callbacks, in the network's delivery order.
func (e *engine) phaseDeliver(now int64) (progress bool, err error) {
	// Indexed, not ranged by value: a per-iteration copy whose address is
	// passed on escapes, one heap packet per delivery.
	ds := e.net.Delivered()
	for i := range ds {
		p := &ds[i]
		lat := now - p.Gen
		if lat < 0 {
			return progress, e.errNegativeLatency(p, now)
		}
		if e.aud != nil {
			if err := e.aud.onDeliver(*p, now); err != nil {
				return progress, err
			}
		}
		e.deliverStats(p, lat)
		if e.obs != nil {
			e.obs.OnDeliver(now, p)
		}
		e.wl.Delivered(*p, now)
		progress = true
	}
	return progress, nil
}

// phaseCycleEnd runs the end-of-cycle audit and telemetry hooks.
func (e *engine) phaseCycleEnd(now int64) error {
	if e.aud != nil {
		if err := e.aud.endOfCycle(e.net, now, e.res.Injected, e.res.Delivered); err != nil {
			return err
		}
	}
	if e.obs != nil {
		e.obs.OnCycleEnd(now, e.net.InFlight())
	}
	return nil
}

// watchdog enforces the stall limit. A cycle counts toward it only when the
// network could have made progress and did not: a packet is in flight or an
// offer was presented (and, having produced no progress, was refused). A
// deliberately idle workload — a trace in a long compute gap with nothing
// pending and an empty network — is not a livelock and resets the window,
// no matter how long the gap.
func (e *engine) watchdog(now int64, anyOffer, progress bool) error {
	if progress || (!anyOffer && e.net.InFlight() == 0) {
		e.lastProgress = now
		return nil
	}
	if now-e.lastProgress > e.opts.StallLimit {
		return &InvariantError{
			Err: ErrStalled, Cycle: now,
			Detail: fmt.Sprintf("stalled for %d cycles (in-flight %d)",
				now-e.lastProgress, e.net.InFlight()),
			Snapshot: e.aud.snapshot(now),
		}
	}
	return nil
}

// converged runs the windowed stationarity test (opt-in early exit); see
// convergence for the criteria. latSum is the cumulative latency total so
// far — passed in rather than read from e so the sharded driver can supply
// the sum of its per-shard partials.
func (e *engine) converged(now, latSum int64) bool {
	if !e.convWin.Boundary(now) {
		return false
	}
	wp := e.convWin.Roll(now, e.res.Delivered, e.res.Injected, float64(latSum), 0)
	if !e.conv.observe(wp) {
		return false
	}
	e.res.Converged = true
	return true
}

// finish seals the Result after the main loop exits at cycle now.
func (e *engine) finish(now int64) (Result, error) {
	e.res.Cycles = now
	// A run that converged used its last cycle in full and stopped on
	// purpose; even if that bumped now to MaxCycles it did not time out.
	// (Converged and TimedOut are mutually exclusive by contract.)
	e.res.TimedOut = now >= e.opts.MaxCycles && !e.res.Converged
	if fn, ok := e.net.(FaultyNetwork); ok {
		e.res.Faults = fn.FaultCounts()
	}
	if rr, ok := findRecoveryReporter(e.wl); ok {
		e.res.Recovery = rr.RecoveryCounts()
	}
	if got := e.res.Delivered + e.res.Faults.Lost(); got != e.res.Injected && !e.res.TimedOut && !e.res.Converged {
		return e.res, &InvariantError{
			Err: ErrConservation, Cycle: now,
			Detail: fmt.Sprintf("injected %d != delivered %d + lost %d (in-flight %d)",
				e.res.Injected, e.res.Delivered, e.res.Faults.Lost(), e.net.InFlight()),
			Snapshot: e.aud.snapshot(now),
		}
	}
	if e.res.Delivered > 0 {
		e.res.AvgLatency = float64(e.latSum) / float64(e.res.Delivered)
	}
	if now > 0 {
		e.res.SustainedRate = float64(e.res.Delivered) / (float64(now) * float64(e.numPE))
	}
	e.res.P50 = e.res.Latency.Quantile(0.50)
	e.res.P99 = e.res.Latency.Quantile(0.99)
	e.res.Counters = *e.net.Counters()
	return e.res, nil
}

// cycleStatus is what one engine cycle reports back to its driver.
type cycleStatus uint8

const (
	// cycleRan: the cycle completed; keep going.
	cycleRan cycleStatus = iota
	// cycleDrained: the workload drained before this cycle ran — the run
	// ends with the current cycle number (the drain check precedes Step).
	cycleDrained
	// cycleConverged: the stationarity test passed at the end of this cycle —
	// the run ends after it (the cycle completed in full).
	cycleConverged
)

// cycle runs the canonical per-cycle phase sequence once at time now: the
// body of the sequential driver (engine.run).
func (e *engine) cycle(now int64) (cycleStatus, error) {
	e.wl.Tick(now)
	anyOffer := e.phaseOffer(now)
	if !anyOffer && e.wl.Done() && e.net.InFlight() == 0 {
		return cycleDrained, nil
	}

	e.net.Step(now)

	progress := e.phaseInjectFeedback(now)
	dp, err := e.phaseDeliver(now)
	if err != nil {
		return cycleRan, err
	}
	progress = progress || dp
	if err := e.phaseCycleEnd(now); err != nil {
		return cycleRan, err
	}
	if err := e.watchdog(now, anyOffer, progress); err != nil {
		return cycleRan, err
	}
	if e.converged(now, e.latSum) {
		return cycleConverged, nil
	}
	return cycleRan, nil
}
