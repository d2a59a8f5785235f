package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/obs"
	"fasttrack/internal/runner"
	"fasttrack/internal/sim"
)

// metricsFrame is the windowed-metrics SSE payload: cumulative totals plus
// the delta over the last sampling window, read from the sim.Progress the
// job's engine publishes into every few thousand cycles. A sweep's rates
// share one Progress, so its counters are sums over the rates while its
// p50/p99 are those of whichever rate published last.
type metricsFrame struct {
	Cycles    int64 `json:"cycles"`
	Injected  int64 `json:"injected"`
	Delivered int64 `json:"delivered"`
	InFlight  int64 `json:"in_flight"`

	WindowCycles    int64   `json:"window_cycles"`
	WindowDelivered int64   `json:"window_delivered"`
	WindowRate      float64 `json:"window_rate"` // delivered/cycle/PE over the window

	CyclesPerSec float64 `json:"cycles_per_sec"`
	MeanLatency  float64 `json:"mean_latency"`
	P50          int64   `json:"p50"`
	P99          int64   `json:"p99"`
}

// progressFrame announces one finished sweep point.
type progressFrame struct {
	Completed int           `json:"completed"`
	Total     int           `json:"total"`
	Point     ResultSummary `json:"point"`
}

// panicFailure carries a recovered panic out of the execution closure.
type panicFailure struct {
	value any
	stack []byte
}

func (p *panicFailure) Error() string { return fmt.Sprintf("job panicked: %v", p.value) }

// runJob drives one admitted job to a terminal state. It never lets a
// panic escape (that would kill the worker and, unrecovered, the daemon)
// and always finishes the job — queued work is never silently dropped.
func (s *Server) runJob(j *Job) {
	s.c.running.Add(1)
	defer s.c.running.Add(-1)

	// The queue-wait span closes at the queued→running transition (or here,
	// when a drain deadline canceled the job in the queue); the histogram
	// sample is the identical duration the span recorded.
	if j.queueWait != nil {
		s.histQueueWait.Observe(j.queueWait.End())
		j.queueWait = nil
	}

	// A drain deadline may have fired while this job sat in the queue;
	// finish it as canceled without starting the simulation.
	if s.baseCtx.Err() != nil {
		s.finishJob(j, nil, false, s.baseCtx.Err())
		return
	}
	j.setRunning()

	// jctx carries the job's span recorder, and with it the job's trace and
	// job IDs, into core.Run*'s engine span.
	jctx := obs.WithTrace(s.baseCtx, j.trace)
	var cancel context.CancelFunc
	ctx := jctx
	if d := s.effectiveTimeout(j.Spec.Timeout()); d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
	}

	log := obs.LoggerWith(jctx, s.log).With("client", j.Client, "kind", j.Spec.Kind)
	log.Info("job running")
	run := j.trace.Begin("run")
	result, cached, err := func() (result any, cached bool, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &panicFailure{value: r, stack: debug.Stack()}
			}
		}()
		if j.Spec.DebugPanic {
			panic("debug_panic requested by spec")
		}
		switch j.Spec.Kind {
		case "sim":
			return s.runSim(ctx, j)
		case "sweep":
			return s.runSweep(ctx, j)
		}
		return nil, false, fmt.Errorf("unknown job kind %q", j.Spec.Kind)
	}()
	s.histRun.Observe(run.Attr("cached", cached).End())
	if cancel != nil {
		cancel()
	}
	s.finishJob(j, result, cached, err)
	if st := j.State(); st == StateDone {
		log.Info("job finished", "state", st, "cached", cached)
	} else {
		log.Warn("job finished", "state", st, "error", err)
	}
}

// effectiveTimeout combines the spec's requested deadline with the daemon
// cap: the spec may only shorten the server's bound, never extend it.
func (s *Server) effectiveTimeout(want time.Duration) time.Duration {
	capd := s.opts.JobTimeout
	if want <= 0 {
		return capd
	}
	if capd > 0 && capd < want {
		return capd
	}
	return want
}

// finishJob classifies the outcome, records the end-to-end span and
// histogram sample (before the terminal transition, so a client that sees
// the final status frame scrapes consistent /metrics), retires the job from
// the in-flight dedup index, records the terminal state, and only then
// applies retention. The dedup key goes first: a client that sees the final
// status and re-submits at once must start a new job, not join this one.
func (s *Server) finishJob(j *Job, result any, cached bool, err error) {
	state := StateDone
	var failure *Failure
	switch {
	case err == nil:
		s.c.finishedDone.Add(1)
		if cached {
			s.c.cacheHits.Add(1)
		}
	default:
		var pf *panicFailure
		switch {
		case errors.As(err, &pf):
			s.c.panics.Add(1)
			s.c.finishedFailed.Add(1)
			state = StateFailed
			failure = &Failure{Kind: "panic", Message: pf.Error(), Stack: string(pf.stack)}
		case s.baseCtx.Err() != nil || errors.Is(err, context.Canceled):
			s.c.finishedCanceled.Add(1)
			state = StateCanceled
			failure = &Failure{Kind: "canceled", Message: "job canceled: " + err.Error()}
		case errors.Is(err, context.DeadlineExceeded):
			s.c.timeouts.Add(1)
			s.c.finishedFailed.Add(1)
			state = StateFailed
			failure = &Failure{Kind: "timeout", Message: "job deadline exceeded: " + err.Error()}
		default:
			s.c.finishedFailed.Add(1)
			state = StateFailed
			failure = &Failure{Kind: "error", Message: err.Error()}
		}
		result, cached = nil, false
	}
	// Root span: the job's whole wall clock from trace creation (admission)
	// to this terminal transition, sampled into the e2e histogram from the
	// identical Span so both sides carry the same nanosecond count.
	e2e := obs.Span{
		Name: "job", Start: j.trace.Start(), End: time.Now(),
		Attrs: map[string]any{"state": string(state), "kind": j.Spec.Kind},
	}
	j.trace.Add(e2e)
	s.histE2E.Observe(e2e.Dur())
	s.releaseKey(j)
	j.finish(state, cached, result, failure)
	s.retain(j)
}

// sampleMetrics streams windowed metrics frames from p, the progress of
// runs over pes PEs, to the job's SSE subscribers until stop closes.
func (s *Server) sampleMetrics(j *Job, p *sim.Progress, pes int, stop <-chan struct{}) {
	t := time.NewTicker(metricsInterval)
	defer t.Stop()
	var prevCycles, prevDelivered int64
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		f := metricsFrame{
			Cycles: p.Cycles.Load(), Injected: p.Injected.Load(),
			Delivered: p.Delivered.Load(), InFlight: p.InFlight.Load(),
			P50: p.P50.Load(), P99: p.P99.Load(),
		}
		f.WindowCycles, f.WindowDelivered = f.Cycles-prevCycles, f.Delivered-prevDelivered
		prevCycles, prevDelivered = f.Cycles, f.Delivered
		if f.WindowCycles > 0 {
			f.WindowRate = float64(f.WindowDelivered) / float64(f.WindowCycles) / float64(pes)
		}
		if start := p.Start.Load(); start != 0 {
			f.CyclesPerSec = float64(f.Cycles) / time.Since(time.Unix(0, start)).Seconds()
		}
		if f.Delivered > 0 {
			f.MeanLatency = float64(p.LatSum.Load()) / float64(f.Delivered)
		}
		j.publish("metrics", f)
	}
}

// runOne satisfies a single (cfg, opts) simulation through the
// orchestrator's cache-through path, reporting whether the cache answered.
func (s *Server) runOne(ctx context.Context, cfg core.Config, opts core.SyntheticOptions) (core.Result, bool, error) {
	return runner.Do(ctx, s.orch, runner.SyntheticKey(cfg, opts), func() (core.Result, error) {
		return core.RunSynthetic(ctx, cfg, opts)
	})
}

func (s *Server) runSim(ctx context.Context, j *Job) (any, bool, error) {
	cfg, opts, err := j.Spec.SimConfig(j.Spec.Workload.Rate)
	if err != nil {
		return nil, false, err
	}
	opts.Progress = new(sim.Progress)
	stop := make(chan struct{})
	go s.sampleMetrics(j, opts.Progress, cfg.N*cfg.N, stop)
	res, cached, err := s.runOne(ctx, cfg, opts)
	close(stop)
	if err != nil {
		return nil, false, err
	}
	return summarize(cfg.String(), opts.Rate, res, cached), cached, nil
}

func (s *Server) runSweep(ctx context.Context, j *Job) (any, bool, error) {
	spec := j.Spec
	cfg0, _, err := spec.SimConfig(spec.Rates[0])
	if err != nil {
		return nil, false, err
	}
	prog := new(sim.Progress)
	stop := make(chan struct{})
	go s.sampleMetrics(j, prog, cfg0.N*cfg0.N, stop)
	defer close(stop)

	results := make([]ResultSummary, len(spec.Rates))
	allCached := true
	var mu sync.Mutex
	completed := 0
	err = s.orch.ForEach(ctx, len(spec.Rates), func(ctx context.Context, i int) error {
		cfg, opts, err := spec.SimConfig(spec.Rates[i])
		if err != nil {
			return err
		}
		opts.Progress = prog
		res, cached, err := s.runOne(ctx, cfg, opts)
		if err != nil {
			return fmt.Errorf("rate %v: %w", spec.Rates[i], err)
		}
		sum := summarize(cfg.String(), spec.Rates[i], res, cached)
		mu.Lock()
		results[i] = sum
		allCached = allCached && cached
		completed++
		done := completed
		mu.Unlock()
		j.publish("progress", progressFrame{Completed: done, Total: len(spec.Rates), Point: sum})
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return results, allCached, nil
}
