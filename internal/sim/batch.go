package sim

import (
	"fmt"

	"fasttrack/internal/noc"
)

// EventWorkload is optionally implemented by workloads that can predict when
// their next generation event fires (traffic.SynthView is the canonical
// implementation: Bernoulli generation is open-loop, so the next arrival is
// a pure function of workload state). The lockstep driver uses it to
// fast-forward an instance across provably idle stretches — cycles where the
// workload has nothing queued, nothing is in flight, and Tick cannot enqueue
// anything — instead of stepping them one by one.
type EventWorkload interface {
	// NextEventCycle returns the earliest cycle > now at which Tick can
	// enqueue new work, or math.MaxInt64 when generation is finished.
	NextEventCycle(now int64) int64
	// QueueEmpty reports that no PE currently holds a queued packet.
	QueueEmpty() bool
}

// BatchJob is one instance of a lockstep batch: a network, a workload, and
// the per-job options. Jobs in one batch are fully independent — they
// typically share slab-backed network state (hoplite.NewBatch /
// fasttrack.NewBatch) and a SyntheticBatch workload, but any
// Network+Workload pair works.
type BatchJob struct {
	Net  noc.Network
	WL   Workload
	Opts Options
}

// BatchResult is one job's outcome.
type BatchResult struct {
	Res Result
	Err error
}

// RunBatch drives every job in lockstep: one outer loop steps each live
// instance one cycle per round (instance.step, the loop body Run shares) with
// per-instance virtual time, so every Result (fields, counters, float
// accumulation order) is bit-identical to Run on the same job. Batching, like
// Options.Shards, is a wall-clock knob only; runner cache keys ignore it.
//
// Per-job restrictions: Shards > 1 and EngineDense are rejected (batching
// composes with sharding at the job level — B instances on one core — not
// inside one instance; the dense path is the reference the batch is measured
// against). A rejected job gets an error in its slot; siblings still run.
//
// Per-job Options.Observer is honored: each instance's observer sees the
// exact event sequence a per-job Run would emit for that instance (the
// engine wires it before the first cycle, and an observed instance never
// fast-forwards). The driver is single-threaded and steps live instances in
// ascending instance order every round, so observer delivery is
// deterministic — the fan-in discipline telemetry.ShardFanIn established
// for sharded runs, at the batch level.
func RunBatch(jobs []BatchJob) []BatchResult {
	out := make([]BatchResult, len(jobs))
	live := make([]*instance, 0, len(jobs))
	for i, j := range jobs {
		opts := j.Opts.withDefaults()
		if opts.Shards > 1 {
			out[i].Err = fmt.Errorf("sim: batch job cannot shard (Shards=%d); run it as a per-job simulation instead", opts.Shards)
			continue
		}
		if opts.Engine == EngineDense {
			out[i].Err = fmt.Errorf("sim: batch jobs run the sparse engine only")
			continue
		}
		live = append(live, newInstance(j.Net, j.WL, opts, &out[i]))
	}
	lockstep(live)
	return out
}

// runOne is Run's unsharded path: the lockstep batch of one. It applies none
// of RunBatch's policy rejections — a per-job run may select EngineDense.
func runOne(net noc.Network, wl Workload, opts Options) (Result, error) {
	var out BatchResult
	lockstep([]*instance{newInstance(net, wl, opts, &out)})
	return out.Res, out.Err
}

// lockstep steps every live instance one cycle per round, compacting the set
// as instances finish.
func lockstep(live []*instance) {
	for len(live) > 0 {
		kept := live[:0]
		for _, st := range live {
			if st.step() {
				kept = append(kept, st)
			}
		}
		live = kept
	}
}

// instance is one engine under the lockstep driver, with its own virtual
// clock and the slot its outcome is sealed into.
type instance struct {
	e   *engine
	out *BatchResult
	now int64
	// ev is non-nil when the instance may fast-forward idle stretches.
	ev EventWorkload
}

// newInstance builds the engine and arms the idle fast-forward when the
// workload implements EventWorkload and nothing needs to see every cycle: no
// auditor, observer or convergence window, nor the dense reference engine.
func newInstance(net noc.Network, wl Workload, opts Options, out *BatchResult) *instance {
	st := &instance{e: newEngine(net, wl, opts), out: out}
	if ev, ok := wl.(EventWorkload); ok && opts.Engine == EngineSparse &&
		st.e.aud == nil && st.e.obs == nil && opts.ConvergeWindow <= 0 {
		st.ev = ev
	}
	return st
}

// step runs the instance's next cycle; it reports false once the run has
// ended, with the outcome sealed in out.
func (st *instance) step() bool {
	e, max := st.e, st.e.opts.MaxCycles

	// Idle fast-forward: with an empty network, an empty source queue, and an
	// undrained workload, every cycle before the next generation event ticks
	// nothing, offers nothing, steps nothing (noc.Network.Step's idle
	// contract) and resets the watchdog — so jump straight to the event (or
	// the cycle budget). lastProgress lands where the last no-op cycle would
	// have left it. InFlight is tested first: it is the cheapest probe and
	// fails on almost every busy cycle.
	if st.ev != nil && e.net.InFlight() == 0 && st.ev.QueueEmpty() && !e.wl.Done() {
		target := st.ev.NextEventCycle(st.now)
		if target > max {
			target = max
		}
		if target > st.now {
			e.lastProgress = target - 1
			st.now = target
		}
	}

	if st.now >= max {
		return st.finish()
	}
	if err := e.pollCtx(); err != nil {
		return st.fail(err)
	}
	cs, err := e.cycle(st.now)
	if err != nil {
		return st.fail(err)
	}
	if cs == cycleDrained {
		return st.finish()
	}
	st.now++ // this cycle completed in full
	if cs == cycleConverged || st.now >= max {
		return st.finish()
	}
	return true
}

func (st *instance) finish() bool {
	st.out.Res, st.out.Err = st.e.finish(st.now)
	return false
}

func (st *instance) fail(err error) bool {
	*st.out = BatchResult{Res: st.e.res, Err: err}
	return false
}
