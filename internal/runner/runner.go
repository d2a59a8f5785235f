// Package runner is the sweep orchestration layer shared by ftexp and
// ftserve: the paper's evaluation is thousands of independent cycle-accurate
// simulations, and this package schedules them across workers and memoizes
// their results in a content-addressed on-disk cache.
//
// The contract with the simulator is strict determinism: a run is a pure
// function of its resolved configuration, workload parameters, seed and
// engine version, so a cached sim.Result is bit-identical to a fresh one and
// scheduling order never changes any value, only wall clock.
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/obs"
)

// JobError reports which job of a ForEach batch failed; Unwrap exposes the
// job's own error.
type JobError struct {
	// Index is the failing job's index in [0, n).
	Index int
	// Err is the error the job returned.
	Err error
}

func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Index, e.Err) }

// Unwrap implements errors.Unwrap.
func (e *JobError) Unwrap() error { return e.Err }

// Orchestrator runs batches of independent simulation jobs. The zero value
// is usable: no cache, one worker per CPU, silent.
type Orchestrator struct {
	// Cache, when non-nil, memoizes job results across processes (see Do).
	Cache *Cache
	// Workers bounds concurrent jobs; 0 means runtime.NumCPU().
	Workers int
	// Progress, when non-nil, receives a live single-line job counter with
	// percentage, elapsed time and ETA (carriage-return updates; typically
	// os.Stderr).
	Progress io.Writer
	// Spans, when non-nil, records one Span per ForEach job (queued/running/
	// done, worker id, cache-hit flag) for the Chrome trace export.
	Spans *SpanLog
	// JobTimeout, when positive, bounds each ForEach job's wall clock: the
	// per-job context expires after this duration, the engine aborts at its
	// next cancellation poll, and the batch fails with a *JobError satisfying
	// errors.Is(err, context.DeadlineExceeded) — distinguishable from a
	// simulation failure. 0 means no per-job deadline.
	JobTimeout time.Duration
	// Log, when non-nil, receives structured records for job failures, with
	// trace_id/job_id attrs when the batch context carries them.
	Log *slog.Logger

	// Per-job duration histograms, split by how the job was satisfied:
	// a cache hit's sample is the lookup, a miss's the simulation itself.
	histCacheHit  obs.DurationHist
	histSimulated obs.DurationHist

	mu       sync.Mutex
	executed int64
	hits     int64
	failed   int64
	active   int
	pending  int
	busy     time.Duration
	slowest  time.Duration
	slowestI int
}

func (o *Orchestrator) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// Stats reports how many jobs were computed versus served from the cache
// since the orchestrator was created.
func (o *Orchestrator) Stats() (executed, cacheHits int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.executed, o.hits
}

// Snapshot is a point-in-time view of the orchestrator for live monitoring
// (the /metrics runner section).
type Snapshot struct {
	// Executed counts fresh simulations, CacheHits cache-answered jobs,
	// Failed jobs that returned an error.
	Executed, CacheHits, Failed int64
	// Active is the number of jobs running right now; Pending the jobs
	// admitted to a ForEach batch but not yet started (the orchestrator's
	// internal queue depth); Workers the pool size.
	Active, Pending, Workers int
	// HistCacheHit/HistSimulated are the per-job duration histograms, split
	// by how Do satisfied the job (cache lookup vs fresh simulation).
	HistCacheHit, HistSimulated obs.HistSnapshot
}

// Snapshot captures the orchestrator's current counters and occupancy.
func (o *Orchestrator) Snapshot() Snapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	return Snapshot{
		Executed: o.executed, CacheHits: o.hits, Failed: o.failed,
		Active: o.active, Pending: o.pending, Workers: o.workers(),
		HistCacheHit:  o.histCacheHit.Snapshot(),
		HistSimulated: o.histSimulated.Snapshot(),
	}
}

// Timing reports aggregate wall clock over ForEach jobs: total busy time and
// the slowest single job with its ForEach index (0 before any job ran).
func (o *Orchestrator) Timing() (busy, slowest time.Duration, slowestIndex int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.busy, o.slowest, o.slowestI
}

func (o *Orchestrator) recordJob(index int, d time.Duration) {
	o.mu.Lock()
	o.busy += d
	if d > o.slowest {
		o.slowest, o.slowestI = d, index
	}
	o.mu.Unlock()
}

// ForEach runs f(ctx, 0..n-1) across the worker pool and returns the first
// error, wrapped in *JobError so the failing index survives. On the first
// failure the context passed to in-flight siblings is cancelled (sim.Run
// polls it via Options.Context) and no further jobs start. Job results must
// be written to per-index storage by f; completion order is unspecified but
// every index below the failing one either ran or was cancelled.
func (o *Orchestrator) ForEach(ctx context.Context, n int, f func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := o.workers()
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr *JobError
		next     int
		done     int
		start    = time.Now()
	)
	o.mu.Lock()
	o.pending += n
	o.mu.Unlock()
	defer func() {
		// Jobs skipped after a sibling failure never transit runOne; settle
		// the pending gauge when the batch returns.
		mu.Lock()
		skipped := n - next
		mu.Unlock()
		o.mu.Lock()
		o.pending -= skipped
		o.mu.Unlock()
	}()
	runOne := func(worker, i int) {
		jctx := cctx
		var span *Span
		if o.Spans != nil {
			span = &Span{Index: i, Worker: worker, Queued: start}
			if t := obs.TraceFrom(cctx); t != nil {
				span.TraceID, span.JobID = t.TraceID(), t.JobID()
			}
			jctx = context.WithValue(cctx, spanKey, span)
		}
		var jcancel context.CancelFunc
		if o.JobTimeout > 0 {
			jctx, jcancel = context.WithTimeout(jctx, o.JobTimeout)
		}
		o.mu.Lock()
		o.active++
		o.pending--
		o.mu.Unlock()
		t0 := time.Now()
		err := f(jctx, i)
		d := time.Since(t0)
		if jcancel != nil {
			// A job that died because its own deadline expired must be
			// distinguishable from a simulation failure even when f wrapped
			// or replaced the context error.
			if err != nil && jctx.Err() == context.DeadlineExceeded &&
				cctx.Err() == nil && !errors.Is(err, context.DeadlineExceeded) {
				err = errors.Join(err, context.DeadlineExceeded)
			}
			jcancel()
		}
		o.mu.Lock()
		o.active--
		if err != nil {
			o.failed++
		}
		o.mu.Unlock()
		if err != nil && o.Log != nil {
			obs.LoggerWith(jctx, o.Log).Warn("sweep job failed",
				"index", i, "worker", worker, "error", err)
		}
		if span != nil {
			span.Start, span.End = t0, t0.Add(d)
			if err != nil {
				span.Err = err.Error()
			}
			o.Spans.add(*span)
		}
		mu.Lock()
		done++
		if err != nil && firstErr == nil {
			firstErr = &JobError{Index: i, Err: err}
			cancel()
		}
		if o.Progress != nil {
			elapsed := time.Since(start)
			eta := time.Duration(float64(elapsed) / float64(done) * float64(n-done))
			fmt.Fprintf(o.Progress, "\r%4d/%d jobs %5.1f%%  elapsed %s  eta %s   ",
				done, n, 100*float64(done)/float64(n),
				elapsed.Round(time.Millisecond), eta.Round(time.Millisecond))
			if done == n {
				fmt.Fprintln(o.Progress)
			}
		}
		mu.Unlock()
		o.recordJob(i, d)
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || next >= n || cctx.Err() != nil {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				runOne(worker, i)
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Do funnels one job through the orchestrator's cache: a hit returns the
// persisted value (counted in Stats), a miss computes it with run and stores
// the result. With no cache configured it just runs and counts. The key must
// be a complete canonical description of the computation (see SyntheticKey);
// run must be a deterministic function of that key. ctx should be the
// context ForEach handed the job so span tracing can mark cache hits;
// context.Background() is fine outside ForEach.
func Do[T any](ctx context.Context, o *Orchestrator, key string, run func() (T, error)) (T, error) {
	span := spanFrom(ctx)
	if span != nil {
		span.Key = key
	}
	var v T
	if o.Lookup([]string{key}, []any{&v}) {
		if span != nil {
			span.CacheHit = true
		}
		return v, nil
	}
	return compute(o, key, run)
}

// Lookup answers keys[i] from the cache into outs[i] (a pointer, as for
// Cache.Get) and reports whether every key hit. Only a full hit is counted in
// Stats, one hit per key with its own lookup time, so a caller that falls
// back to Do after a partial hit still counts each key once.
func (o *Orchestrator) Lookup(keys []string, outs []any) bool {
	if o.Cache == nil {
		return false
	}
	took := make([]time.Duration, len(keys))
	for i, key := range keys {
		t0 := time.Now()
		if !o.Cache.Get(key, outs[i]) {
			return false
		}
		took[i] = time.Since(t0)
	}
	for _, d := range took {
		o.histCacheHit.Observe(d)
	}
	o.mu.Lock()
	o.hits += int64(len(keys))
	o.mu.Unlock()
	return true
}

// compute runs a job whose key missed, counts and times it, and stores the
// result under key.
func compute[T any](o *Orchestrator, key string, run func() (T, error)) (T, error) {
	t0 := time.Now()
	v, err := run()
	if err != nil {
		return v, err
	}
	o.histSimulated.Observe(time.Since(t0))
	o.mu.Lock()
	o.executed++
	o.mu.Unlock()
	if o.Cache != nil {
		// Best-effort: a failed write (full disk, read-only dir) only costs
		// a recompute next time.
		_ = o.Cache.Put(key, v)
	}
	return v, nil
}

// SyntheticJob is one synthetic simulation request for DoSynthetic.
type SyntheticJob struct {
	Cfg  core.Config
	Opts core.SyntheticOptions
}

// DoSynthetic answers a sweep's synthetic jobs, returning results in job
// order. Per job it is Do(SyntheticKey, core.RunSynthetic): the same key,
// stored bytes and Result bits. Cache hits are served inline, before
// ForEach, so a warm sweep schedules nothing and records no span; each miss
// is its own ForEach job, which simulates it without reading its key again.
func DoSynthetic(ctx context.Context, o *Orchestrator, jobs []SyntheticJob) ([]core.Result, error) {
	out := make([]core.Result, len(jobs))
	keys := make([]string, len(jobs))
	var misses []int
	for i, j := range jobs {
		keys[i] = SyntheticKey(j.Cfg, j.Opts)
		if !o.Lookup(keys[i:i+1], []any{&out[i]}) {
			misses = append(misses, i)
		}
	}
	err := o.ForEach(ctx, len(misses), func(jctx context.Context, m int) error {
		i := misses[m]
		if span := spanFrom(jctx); span != nil {
			span.Key = keys[i]
		}
		var err error
		out[i], err = compute(o, keys[i], func() (core.Result, error) {
			return core.RunSynthetic(jctx, jobs[i].Cfg, jobs[i].Opts)
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
