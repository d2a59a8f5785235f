// The sharded driver: the same per-cycle protocol as engine.cycle, with
// three phases fanned out over S persistent workers — workload tick+offer
// (when the workload is ShardableWorkload), network StepShard, and delivery
// statistics partitioned by source shard. Everything order-sensitive (the
// done check, audit, observer callbacks, the watchdog, convergence) stays on
// the coordinator, and every parallel reduction is integer-valued and
// merged in ascending shard order, so the Result is bit-identical to the
// sequential engine's. golden_test.go enforces that equivalence.
package sim

import (
	"fmt"
	"sync"

	"fasttrack/internal/noc"
	"fasttrack/internal/stats"
	"fasttrack/internal/telemetry"
)

// shardPool runs one closure per shard per dispatch on persistent workers.
// Shard 0 always executes on the coordinator goroutine, so a single-shard
// pool degenerates to an inline call and an S-shard dispatch wakes S-1
// workers.
type shardPool struct {
	wg   sync.WaitGroup
	work []chan func() // workers for shards 1..S-1
}

func newShardPool(s int) *shardPool {
	p := &shardPool{work: make([]chan func(), s-1)}
	for i := range p.work {
		ch := make(chan func(), 1)
		p.work[i] = ch
		go func() {
			for f := range ch {
				f()
				p.wg.Done()
			}
		}()
	}
	return p
}

// dispatch runs f(k) for every shard k and returns after all complete.
func (p *shardPool) dispatch(f func(k int)) {
	p.wg.Add(len(p.work))
	for i, ch := range p.work {
		k := i + 1
		ch <- func() { f(k) }
	}
	f(0)
	p.wg.Wait()
}

func (p *shardPool) close() {
	for _, ch := range p.work {
		close(ch)
	}
}

// shardState is one shard's slice of the engine state: its PE range, live
// list, and the integer statistics partials that merge into the Result.
type shardState struct {
	lo, hi int // PE range [lo, hi)

	live     []int
	anyOffer bool

	injected int64
	progress bool

	hist   *stats.Histogram
	latSum int64
	worst  int64
	err    error
}

// runSharded drives net with Options.Shards row-band workers.
func runSharded(net noc.Network, wl Workload, opts Options) (Result, error) {
	snet, ok := net.(noc.ShardedNetwork)
	if !ok {
		return Result{}, fmt.Errorf("sim: Shards=%d requires a noc.ShardedNetwork, %T is not one", opts.Shards, net)
	}
	if opts.Engine == EngineDense {
		return Result{}, fmt.Errorf("sim: Shards=%d is incompatible with EngineDense (the dense reference path is sequential by definition)", opts.Shards)
	}
	s, err := snet.ConfigureShards(opts.Shards)
	if err != nil {
		return Result{}, fmt.Errorf("sim: ConfigureShards(%d): %w", opts.Shards, err)
	}
	if s == 1 {
		// One row: nothing to fan out.
		return runOne(net, wl, opts)
	}

	e := newEngine(net, wl, opts)

	// The engine's shard map mirrors the network's row bands exactly: PE i
	// sits at router i, so the network's router ranges are PE ranges.
	shards := make([]shardState, s)
	bounds := make([]int, s+1)
	peShard := make([]int32, e.numPE)
	for k := 0; k < s; k++ {
		lo, hi := snet.ShardRange(k)
		shards[k] = shardState{lo: lo, hi: hi, hist: stats.NewLatencyHistogram(opts.HistogramMax), worst: -1}
		bounds[k], bounds[k+1] = lo, hi
		for pe := lo; pe < hi; pe++ {
			peShard[pe] = int32(k)
		}
	}

	// Workload fan-out is opt-in: a ShardableWorkload that accepts the
	// network's partition ticks per shard; anything else (traces, decorator
	// chains) ticks sequentially on the coordinator while the network still
	// steps in parallel.
	swl, shardable := wl.(ShardableWorkload)
	if shardable {
		shardable = swl.ConfigureShards(bounds)
	}

	// Telemetry fan-in: router-level events emitted inside StepShard go to
	// per-shard buffers and are replayed into the real observer after the
	// step barrier, in sequential event order.
	var fan *telemetry.ShardFanIn
	if e.obs != nil {
		so, ok := net.(telemetry.ShardObservable)
		if !ok {
			return Result{}, fmt.Errorf("sim: network %T cannot fan out telemetry; run with Shards=1 or drop the observer", net)
		}
		fan = telemetry.NewShardFanIn(e.obs, s)
		so.SetShardObservers(fan.Observers())
	}

	// Inject feedback may fan out only when nobody needs a globally ordered
	// callback stream: the auditor and observer both do.
	parallelInject := shardable && e.aud == nil && e.obs == nil

	pool := newShardPool(s)
	defer pool.close()

	var now int64
	for now = 0; now < opts.MaxCycles; now++ {
		if err := e.pollCtx(); err != nil {
			return e.res, err
		}

		// Phase 1: tick + offer.
		anyOffer := false
		if shardable {
			cyc := now
			pool.dispatch(func(k int) {
				sh := &shards[k]
				swl.TickShard(k, cyc)
				sh.live = swl.ActiveShard(k, sh.live[:0])
				sh.anyOffer = false
				for _, pe := range sh.live {
					if e.offerPE(pe, cyc) {
						sh.anyOffer = true
					}
				}
			})
			for k := range shards {
				if shards[k].anyOffer {
					anyOffer = true
				}
			}
		} else {
			e.wl.Tick(now)
			anyOffer = e.phaseOffer(now)
		}
		if !anyOffer && wl.Done() && net.InFlight() == 0 {
			break
		}

		// Phase 2: the network cycle — marks published, shards stepped in
		// parallel, links latched, events replayed in order.
		snet.BeginCycle(now)
		{
			cyc := now
			pool.dispatch(func(k int) { snet.StepShard(k, cyc) })
		}
		snet.EndCycle(now)
		if fan != nil {
			fan.Flush()
		}

		// Phase 3: inject feedback.
		progress := false
		if parallelInject {
			cyc := now
			pool.dispatch(func(k int) {
				sh := &shards[k]
				sh.injected = 0
				sh.progress = false
				for _, pe := range sh.live {
					if e.injectPE(pe, cyc) {
						sh.injected++
						sh.progress = true
					}
				}
			})
			for k := range shards {
				e.res.Injected += shards[k].injected
				progress = progress || shards[k].progress
			}
		} else if shardable {
			for k := range shards {
				for _, pe := range shards[k].live {
					if e.injectPE(pe, now) {
						e.res.Injected++
						progress = true
					}
				}
			}
		} else {
			progress = e.phaseInjectFeedback(now)
		}

		// Phase 4: deliveries. Statistics are partitioned by *source* shard
		// (each delivered packet is folded by the worker owning its source
		// PE, preserving per-source delivery order), while the
		// order-sensitive callbacks — audit, observer, workload — replay the
		// merged batch sequentially on the coordinator.
		batch := net.Delivered()
		if len(batch) > 0 {
			progress = true
			cyc := now
			statShard := func(k int) {
				sh := &shards[k]
				for i := range batch {
					p := &batch[i]
					pe := noc.PEIndex(p.Src, e.width)
					if pe < sh.lo || pe >= sh.hi {
						continue
					}
					lat := cyc - p.Gen
					if lat < 0 {
						if sh.err == nil {
							sh.err = e.errNegativeLatency(p, cyc)
						}
						continue
					}
					sh.hist.Add(lat)
					e.res.PerSource[pe].Add(float64(lat))
					sh.latSum += lat
					if lat > sh.worst {
						sh.worst = lat
					}
				}
			}
			if len(batch) >= 4*s {
				pool.dispatch(statShard)
			} else {
				// Small batches are not worth a barrier; same partials,
				// folded inline by source shard.
				for i := range batch {
					p := &batch[i]
					sh := &shards[peShard[noc.PEIndex(p.Src, e.width)]]
					lat := now - p.Gen
					if lat < 0 {
						if sh.err == nil {
							sh.err = e.errNegativeLatency(p, now)
						}
						continue
					}
					sh.hist.Add(lat)
					e.res.PerSource[noc.PEIndex(p.Src, e.width)].Add(float64(lat))
					sh.latSum += lat
					if lat > sh.worst {
						sh.worst = lat
					}
				}
			}
			for k := range shards {
				if shards[k].err != nil {
					return e.res, shards[k].err
				}
			}
			e.res.Delivered += int64(len(batch))
			for i := range batch {
				p := &batch[i]
				if e.aud != nil {
					if err := e.aud.onDeliver(*p, now); err != nil {
						return e.res, err
					}
				}
				if e.obs != nil {
					e.obs.OnDeliver(now, p)
				}
				e.wl.Delivered(*p, now)
			}
		}

		if err := e.phaseCycleEnd(now); err != nil {
			return e.res, err
		}
		if err := e.watchdog(now, anyOffer, progress); err != nil {
			return e.res, err
		}
		if e.opts.ConvergeWindow > 0 {
			var latSum int64
			for k := range shards {
				latSum += shards[k].latSum
			}
			if e.converged(now, latSum) {
				now++ // this cycle completed in full
				break
			}
		}
	}

	// Merge the per-shard statistics partials in ascending shard order.
	// Histogram buckets, latency sums and maxima are integers, so the merge
	// reproduces the sequential accumulation exactly.
	for k := range shards {
		sh := &shards[k]
		e.res.Latency.Merge(sh.hist)
		e.latSum += sh.latSum
		if sh.worst > e.res.WorstLatency {
			e.res.WorstLatency = sh.worst
		}
	}
	return e.finish(now)
}
