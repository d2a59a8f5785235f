// Package sim drives a noc.Network cycle by cycle against a workload and
// collects the measurements the paper reports: sustained injection rate,
// average and worst-case packet latency, latency histograms, link-usage and
// deflection counters, and workload completion time.
//
// The engine's per-cycle protocol matches noc.Standing: the workload's
// changed offers are presented (at most one standing offer per PE), the
// network steps, accepted offers are consumed and deliveries are fed back to
// the workload (dependency-driven traces use this to unlock later sends).
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
// enumerate the PEs which may have a pending packet this cycle; Run walks
// that list instead of all N² PEs wherever it needs every live PE.
//
// The contract: after Tick, every PE for which Pending would return ok must
// appear in the returned set (a superset is fine, duplicates are not), a PE
// leaves it only after Injected or once Pending returned !ok for it, and the
// enumeration must be a deterministic function of the workload's history so
// repeated runs replay identically. The fast path is bit-exact with the full
// scan, which the golden suites run as the reference, because per-PE offer
// operations are independent.
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
	// fill an empty queue, or math.MaxInt64 when none will. Run asks only
	// while QueueEmpty holds, and only that reading is contracted: there it
	// is the next generation event, and MaxInt64 means generation is
	// finished.
	NextEventCycle(now int64) int64
	// QueueEmpty reports that no PE currently holds a queued packet.
	QueueEmpty() bool
}

// ChangeReporter is optionally implemented by workloads that know which PEs'
// offers changed: Run presents only those, as standing offers (noc.Standing)
// the network keeps latched until accepted, replaced or retracted. A
// workload without it is re-presented as every live PE every cycle.
//
// The contract: Changed is called once per cycle after Tick and appends to
// buf every PE whose Pending may differ from what it returned when that PE
// was last presented (the first call: every PE that may be pending). A
// superset is fine and neither order nor duplicates matter; Injected must not
// depend on the order of its calls either, which follow the accepted list.
type ChangeReporter interface {
	Changed(buf []int) []int
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

// Options configures a run.
type Options struct {
	// MaxCycles bounds the run; 0 means a generous default.
	MaxCycles int64
	// StallLimit aborts with an error if no packet is injected or delivered
	// for this many consecutive cycles while work remains. It is a livelock
	// tripwire; 0 means a generous default.
	StallLimit int64
	// CheckConservation audits packet conservation every cycle and checks
	// each delivery against its injected copy (no loss, duplication,
	// corruption, or misdelivery). Costs O(1) map work per packet; tests
	// should enable it, sweeps may leave it off.
	CheckConservation bool
	// MaxPacketAge, when positive, is a starvation watchdog: the run fails
	// fast with ErrStarvation and a diagnostic snapshot if any packet stays
	// in flight longer than this many cycles. 0 disables the watchdog.
	MaxPacketAge int64
	// Observer, when non-nil, receives cycle-level telemetry events
	// (injections, hops, deflections, deliveries — see internal/telemetry).
	// Run attaches it to the network and to the workload when either
	// implements telemetry.Observable. nil keeps every
	// emission site on its single-nil-check disabled path.
	Observer telemetry.Observer
	// Context, when non-nil, is polled every few thousand cycles so a sweep
	// scheduler (internal/runner) can cancel in-flight sibling simulations
	// once one job fails; Run returns the context's error. nil never cancels.
	Context context.Context
	// Progress, when non-nil, receives the run's totals on the same
	// every-few-thousand-cycles branch and once at the end (see Progress).
	// It is not an Observer: it reads only the engine's own state.
	Progress *Progress
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

// Run drives net against wl on the calling goroutine until the workload
// drains or a limit is hit. net must implement noc.Standing, the engine's
// only offer path; Run rejects any other network with an error naming its
// type.
func Run(net noc.Network, wl Workload, opts Options) (Result, error) {
	s, ok := net.(noc.Standing)
	if !ok {
		return Result{}, fmt.Errorf("sim: network %T does not implement noc.Standing", net)
	}
	return newEngine(s, wl, opts.withDefaults()).run()
}

// run is the engine loop: engine.cycle once per cycle of the virtual clock until
// the run ends.
//
// Idle fast-forward: when the workload is an EventWorkload and nothing needs
// to see every cycle (no auditor, observer or convergence window), an empty
// network with an empty source queue and an undrained workload jumps
// straight to the next generation event (or the cycle budget). Every skipped
// cycle would tick nothing, offer nothing, step
// nothing (noc.Network.Step's idle contract) and reset the watchdog, so
// lastProgress lands where the last no-op cycle would have left it. InFlight
// is tested first: it is the cheapest probe and fails on almost every busy
// cycle.
func (e *engine) run() (Result, error) {
	budget := e.opts.MaxCycles
	ev, skip := e.wl.(EventWorkload)
	skip = skip && e.aud == nil && e.obs == nil && e.opts.ConvergeWindow <= 0
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
		if err := e.poll(now); err != nil {
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

// engine is one run's mutable state. engine.cycle spells the per-cycle
// protocol out as phase methods — tick/offer, step, inject feedback,
// deliver, cycle-end bookkeeping — and every scalar rule (watchdog,
// convergence, result finalization) has one method of its own.
type engine struct {
	net  noc.Standing
	wl   Workload
	opts Options
	res  Result

	numPE int
	width int

	// offered[pe] marks a standing offer until injectPE sees it accepted or
	// present retracts it; standing counts them.
	offered  []bool
	standing int
	aud      *auditor
	obs      telemetry.Observer
	// track is set when the auditor or the observer needs every injected
	// packet (pkt, re-read from Pending) and inject feedback in live order,
	// which TestGoldenStandingOffers pins for observed runs.
	track bool
	pkt   noc.Packet
	// changes is the workload's change report (nil: present live instead).
	changes ChangeReporter
	changed []int
	// live lists every PE that may be pending: refilled from activeWL when
	// needed, or fixed to 0..N-1 for a workload without ActiveSet.
	activeWL ActiveSet
	live     []int

	// latSum accumulates delivery latencies as an exact integer; AvgLatency
	// is latSum over Delivered, so its bits depend on the sum never rounding.
	latSum       int64
	lastProgress int64
	// executed counts cycles actually run, unlike the skippable virtual clock.
	executed int64
	// polling is set when a Context or a Progress needs the every-4096
	// executed cycles branch; pub is what this run has published so far.
	polling bool
	pub     totals

	// Convergence-window state (inert when ConvergeWindow is 0).
	convWin telemetry.WindowTracker
	conv    convergence
}

func newEngine(net noc.Standing, wl Workload, opts Options) *engine {
	e := &engine{
		net: net, wl: wl, opts: opts,
		res:     Result{Latency: stats.NewLatencyHistogram(stats.DefaultHistogramMax)},
		numPE:   net.NumPEs(),
		width:   net.Width(),
		aud:     newAuditor(net, opts),
		obs:     opts.Observer,
		polling: opts.Context != nil || opts.Progress != nil,
		convWin: telemetry.WindowTracker{W: opts.ConvergeWindow},
		conv:    convergence{tol: opts.ConvergeTol},
	}
	e.res.PerSource = make([]stats.Accumulator, e.numPE)
	e.offered = make([]bool, e.numPE)
	if e.obs != nil {
		for _, x := range []any{net, wl} { // either may hold the observer
			if o, ok := x.(telemetry.Observable); ok {
				o.SetObserver(e.obs)
			}
		}
	}
	if a, ok := wl.(ActiveSet); ok {
		e.activeWL = a
	} else {
		e.live = make([]int, e.numPE)
		for pe := range e.live {
			e.live[pe] = pe
		}
	}
	e.changes, _ = wl.(ChangeReporter)
	e.track = e.aud != nil || e.obs != nil
	return e
}

// poll takes the engine's periodic branch every few thousand executed
// cycles, starting with the first so an already-cancelled context returns
// before any work: it publishes to the Progress and checks for
// sweep-scheduler cancellation. It counts executed cycles rather than testing
// the virtual clock because an idle fast-forward jumps the clock over any
// fixed multiple. A run with neither pays one test per cycle.
func (e *engine) poll(now int64) error {
	e.executed++
	if e.polling && e.executed&4095 == 1 {
		return e.pollSlow(now)
	}
	return nil
}

func (e *engine) pollSlow(now int64) error {
	if e.opts.Progress != nil {
		e.publish(now, int64(e.net.InFlight()))
	}
	if e.opts.Context != nil {
		return e.opts.Context.Err()
	}
	return nil
}

// present latches pe's pending packet as its standing offer, replacing any
// earlier one, or retracts the offer when nothing is pending.
func (e *engine) present(pe int, now int64) {
	switch p, ok := e.wl.Pending(pe, now); {
	case ok:
		if !e.offered[pe] {
			e.offered[pe] = true
			e.standing++
		}
		e.net.Hold(pe, p)
	case e.offered[pe]:
		e.offered[pe] = false
		e.standing--
		e.net.Retract(pe)
	}
}

// phaseOffer presents the workload's changed PEs, or every live PE. Per-PE
// offer operations are independent, so both are bit-exact with the full
// 0..N-1 scan (golden_test.go and standing_test.go).
func (e *engine) phaseOffer(now int64) {
	if e.activeWL != nil && (e.track || e.changes == nil) {
		e.live = e.activeWL.ActivePEs(e.live[:0])
	}
	pes := e.live
	if e.changes != nil {
		e.changed = e.changes.Changed(e.changed[:0])
		pes = e.changed
	}
	for _, pe := range pes {
		e.present(pe, now)
	}
}

// injectPE consumes pe's offer if the network accepted it, counting it into
// Result.Injected and reporting whether an injection happened.
func (e *engine) injectPE(pe int, now int64) bool {
	if !e.offered[pe] || !e.net.Accepted(pe) {
		return false
	}
	e.offered[pe] = false
	e.standing--
	e.res.Injected++
	if e.track {
		// Pending returns the accepted offer until Injected (Workload's rule).
		e.pkt, _ = e.wl.Pending(pe, now)
	}
	e.wl.Injected(pe, now)
	if e.aud != nil {
		e.aud.onInject(e.pkt, now)
	}
	if e.obs != nil {
		e.obs.OnInject(now, &e.pkt)
	}
	return true
}

// phaseInjectFeedback relays the network's accept decisions back to the
// workload: for a change-reporting workload nobody tracks, only the
// accepted list; otherwise every live PE, in live-list order.
func (e *engine) phaseInjectFeedback(now int64) bool {
	pes := e.live
	if e.changes != nil && !e.track {
		pes = e.net.AcceptedPEs()
	}
	progress := false
	for _, pe := range pes {
		if e.injectPE(pe, now) {
			progress = true
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
// offer stands (and, having produced no progress, was refused). A
// deliberately idle workload — a trace in a long compute gap with nothing
// pending and an empty network — is not a livelock and resets the window,
// no matter how long the gap.
func (e *engine) watchdog(now int64, progress bool) error {
	if progress || (e.standing == 0 && e.net.InFlight() == 0) {
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
// convergence for the criteria.
func (e *engine) converged(now int64) bool {
	if !e.convWin.Boundary(now) {
		return false
	}
	wp := e.convWin.Roll(now, e.res.Delivered, e.res.Injected, float64(e.latSum), 0)
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
	if e.aud != nil && e.aud.faulty != nil {
		e.res.Faults = e.aud.faulty.FaultCounts()
	}
	if rr, ok := e.wl.(RecoveryReporter); ok {
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
	if e.opts.Progress != nil {
		e.publish(now, 0)
	}
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
// body of engine.run.
func (e *engine) cycle(now int64) (cycleStatus, error) {
	e.wl.Tick(now)
	e.phaseOffer(now)
	if e.standing == 0 && e.wl.Done() && e.net.InFlight() == 0 {
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
	if err := e.watchdog(now, progress); err != nil {
		return cycleRan, err
	}
	if e.converged(now) {
		return cycleConverged, nil
	}
	return cycleRan, nil
}
