// Package serve is the simulation-as-a-service front door: a long-running
// daemon (cmd/ftserve) where clients POST sim/sweep job specs as JSON
// (the cliflags.JobSpec codec — the same vocabulary as the CLI flag groups),
// receive job IDs, stream progress and windowed metrics over SSE, and fetch
// results. Identical jobs dedupe twice: in flight (a duplicate POST joins
// the running job) and at rest (every run consults the shared
// content-addressed .ftcache/ through internal/runner), so a thousand
// identical requests cost one simulation.
//
// The robustness machinery is the point, not the plumbing:
//
//   - Admission control: a bounded job queue; a full queue answers
//     HTTP 429 with Retry-After and an explicit rejection counter rather
//     than queueing without bound.
//   - Per-client token-bucket rate limits (X-Client header or remote host).
//   - Per-job deadlines: the job context expires and the engine aborts at
//     its next cancellation poll; the client sees a structured timeout.
//   - Panic isolation: a crashing job yields a structured error response
//     with the stack; the daemon keeps serving.
//   - Backpressure on slow SSE consumers: bounded per-client frame buffers
//     with drop-oldest, write deadlines on every frame.
//   - Graceful drain: Drain stops admission (503), finishes or — past the
//     drain deadline — cleanly cancels every accepted job, and returns only
//     when each one has reached a terminal, fetchable state (zero
//     accepted-job loss).
package serve

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fasttrack/internal/cliflags"
	"fasttrack/internal/obs"
	"fasttrack/internal/runner"
)

// Per-job SSE stream settings. metricsInterval is the windowed-metrics frame
// period. sseBuf is each subscriber's frame buffer, 8 s of metrics frames: a
// subscriber further behind loses its oldest frames and never stalls the job.
// It must hold the two frames a finished job's subscriber is handed at once.
// sseWriteTimeout bounds each frame write so a stalled client cannot hold its
// handler.
const (
	metricsInterval = 250 * time.Millisecond
	sseBuf          = 32
	sseWriteTimeout = 10 * time.Second
)

// Options configures a daemon. The zero value is usable: defaults below.
type Options struct {
	// QueueDepth bounds the admission queue (default 64). POSTs beyond it
	// are rejected with 429, never buffered.
	QueueDepth int
	// Workers is the number of concurrent jobs (default NumCPU).
	Workers int
	// SweepWorkers bounds the per-job simulation fan-out inside sweep jobs
	// (default NumCPU).
	SweepWorkers int
	// RatePerSec, when positive, enforces a per-client token-bucket
	// admission rate; Burst is the bucket size (default 8).
	RatePerSec float64
	Burst      float64
	// JobTimeout caps every job's wall clock; a spec's timeout_ms may only
	// shorten it. 0 means no server-side cap.
	JobTimeout time.Duration
	// CacheDir is the shared content-addressed result cache (default
	// runner.DefaultCacheDir); NoCache disables it.
	CacheDir string
	NoCache  bool
	// RetainJobs bounds how many finished jobs stay fetchable (default
	// 4096); older ones are evicted so the registry cannot grow without
	// bound.
	RetainJobs int
	// Logger receives the daemon's structured records, every one carrying
	// trace_id/job_id/client attrs where a request is in scope. nil discards
	// (embedding tests stay quiet); cmd/ftserve passes the cliflags.Logging
	// logger.
	Logger *slog.Logger

	// beforeRun, when set, runs at the start of every job's execution,
	// inside its panic recovery: tests hold a worker or crash a job through
	// it. No production caller sets it.
	beforeRun func(*Job)
}

func (o Options) queueDepth() int {
	if o.QueueDepth > 0 {
		return o.QueueDepth
	}
	return 64
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

func (o Options) retainJobs() int {
	if o.RetainJobs > 0 {
		return o.RetainJobs
	}
	return 4096
}

func (o Options) burst() float64 {
	if o.Burst > 0 {
		return o.Burst
	}
	return 8
}

// counters are the daemon's explicit accounting: every admission decision
// increments exactly one of these, so /metrics totals reconcile with what
// clients observed.
type counters struct {
	admitted         atomic.Int64
	deduped          atomic.Int64
	rejectedQueue    atomic.Int64
	rejectedRate     atomic.Int64
	rejectedDraining atomic.Int64
	badSpec          atomic.Int64

	finishedDone     atomic.Int64
	finishedFailed   atomic.Int64
	finishedCanceled atomic.Int64
	timeouts         atomic.Int64
	panics           atomic.Int64

	cacheHits  atomic.Int64 // jobs runner.Do answered entirely from the cache
	running    atomic.Int64
	sseDropped atomic.Int64
}

// Server is the daemon. Create with New, expose Handler over HTTP, stop
// with Drain (graceful) or Close (immediate cancel, still no job loss).
type Server struct {
	opts Options
	orch *runner.Orchestrator

	// baseCtx parents every job context; cancelAll is the drain deadline's
	// hammer (and Close's).
	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu        sync.Mutex
	jobs      map[string]*Job
	byKey     map[string]*Job // queued or running jobs by canonical spec key
	doneOrder []string        // finished job IDs, oldest first (retention)
	queue     chan *Job
	seq       int64

	wg       sync.WaitGroup
	draining atomic.Bool
	drained  chan struct{}

	limiter *limiter
	c       counters
	log     *slog.Logger

	// Stage-latency histograms (fixed obs bucket geometry). Each sample is
	// the exact duration of one recorded span, so /metrics sums reconcile
	// bit-for-bit with the span log (see DESIGN.md §16).
	histQueueWait obs.DurationHist
	histRun       obs.DurationHist
	histE2E       obs.DurationHist
	histSSEFlush  obs.DurationHist

	start time.Time
}

// New builds a daemon and starts its worker pool.
func New(opts Options) (*Server, error) {
	var cache *runner.Cache
	if !opts.NoCache {
		var err error
		if cache, err = runner.NewCache(opts.CacheDir); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		orch:      &runner.Orchestrator{Cache: cache, Workers: opts.SweepWorkers},
		baseCtx:   ctx,
		cancelAll: cancel,
		jobs:      make(map[string]*Job),
		byKey:     make(map[string]*Job),
		queue:     make(chan *Job, opts.queueDepth()),
		drained:   make(chan struct{}),
		limiter:   newLimiter(opts.RatePerSec, opts.burst()),
		log:       opts.Logger,
		start:     time.Now(),
	}
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	for i := 0; i < opts.workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Orchestrator exposes the shared sweep orchestrator (for /metrics and
// embedding).
func (s *Server) Orchestrator() *runner.Orchestrator { return s.orch }

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// beginDrain idempotently stops admission and closes the queue; workers
// drain the remaining accepted jobs and exit.
func (s *Server) beginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Swap(true) {
		return
	}
	close(s.queue)
	go func() {
		s.wg.Wait()
		close(s.drained)
	}()
}

// Drain gracefully shuts the daemon down: admission stops immediately
// (POSTs answer 503), accepted jobs run to completion, and when ctx expires
// first the remaining jobs are cancelled cooperatively — they still reach a
// terminal state and stay fetchable, so an accepted job is never lost
// either way. Returns nil when every job finished inside the deadline,
// ctx's error otherwise.
func (s *Server) Drain(ctx context.Context) error {
	s.beginDrain()
	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-s.drained
		return ctx.Err()
	}
}

// Close shuts down without grace: admission stops and in-flight jobs are
// cancelled at once (they still finish as canceled, not lost).
func (s *Server) Close() error {
	s.beginDrain()
	s.cancelAll()
	<-s.drained
	return nil
}

// RejectError is a structured admission refusal; the HTTP layer serializes
// it with the matching status and Retry-After header.
type RejectError struct {
	Code       string // "queue_full" | "rate_limited" | "draining" | "bad_spec"
	Status     int
	Message    string
	RetryAfter time.Duration
}

func (e *RejectError) Error() string { return e.Code + ": " + e.Message }

// Admit runs the admission pipeline for a decoded, validated spec:
// drain check, per-client rate limit, in-flight dedup, bounded queue.
// clientKey identifies the caller for rate limiting; traceID is the
// client-supplied correlation ID ("" generates one). On success the job is
// registered and queued (dedup=false) with admission and queue-wait spans
// already recording, or an identical in-flight job is returned (dedup=true)
// with a dedup_join event appended to its trace.
func (s *Server) Admit(spec *cliflags.JobSpec, clientKey, traceID string) (j *Job, dedup bool, rej *RejectError) {
	tr := obs.NewJobTrace(traceID)
	reject := func(rej *RejectError) (*Job, bool, *RejectError) {
		s.log.Warn("admission rejected",
			"trace_id", tr.TraceID(), "client", clientKey,
			"reason", rej.Code)
		return nil, false, rej
	}
	adm := tr.Begin("admission").Attr("client", clientKey)
	if s.draining.Load() {
		s.c.rejectedDraining.Add(1)
		return reject(&RejectError{
			Code: "draining", Status: http.StatusServiceUnavailable,
			Message: "daemon is draining; not admitting new jobs",
		})
	}
	rl := tr.Begin("rate_limit")
	ok, retry := s.limiter.allow(clientKey, time.Now())
	rl.End()
	if !ok {
		s.c.rejectedRate.Add(1)
		return reject(&RejectError{
			Code: "rate_limited", Status: http.StatusTooManyRequests,
			Message:    "per-client admission rate exceeded",
			RetryAfter: retry,
		})
	}
	key, err := spec.CanonicalKey()
	if err != nil {
		s.c.badSpec.Add(1)
		return reject(&RejectError{
			Code: "bad_spec", Status: http.StatusBadRequest, Message: err.Error(),
		})
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the lock: beginDrain closes the queue under the same
	// mutex, so this ordering makes "send on closed queue" impossible.
	if s.draining.Load() {
		s.c.rejectedDraining.Add(1)
		return reject(&RejectError{
			Code: "draining", Status: http.StatusServiceUnavailable,
			Message: "daemon is draining; not admitting new jobs",
		})
	}
	if prior := s.byKey[key]; prior != nil {
		s.c.deduped.Add(1)
		// The duplicate POST's own trace ID lands as an event attr on the
		// job it joined, so both correlation handles survive.
		prior.trace.Event("dedup_join", map[string]any{
			"client": clientKey, "joined_trace_id": tr.TraceID(),
		})
		s.log.Info("dedup join",
			"trace_id", prior.TraceID(), "job_id", prior.ID,
			"client", clientKey, "joined_trace_id", tr.TraceID())
		return prior, true, nil
	}
	s.seq++
	j = newJob(s, s.seq, spec, key, tr, clientKey)
	adm.End()
	// The queue-wait span must open before the channel send: the send is the
	// happens-before edge to the worker that will close it.
	j.queueWait = tr.Begin("queue_wait")
	select {
	case s.queue <- j:
	default:
		s.c.rejectedQueue.Add(1)
		return reject(&RejectError{
			Code: "queue_full", Status: http.StatusTooManyRequests,
			Message:    "admission queue is full",
			RetryAfter: time.Second,
		})
	}
	s.jobs[j.ID] = j
	s.byKey[key] = j
	s.c.admitted.Add(1)
	s.log.Info("job admitted",
		"trace_id", j.TraceID(), "job_id", j.ID, "client", clientKey,
		"kind", spec.Kind, "queue_depth", len(s.queue))
	return j, false, nil
}

// Job returns a registered job by ID (nil if unknown or evicted).
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// releaseKey removes a finishing job from the dedup index, so admissions of
// its spec start a new job.
func (s *Server) releaseKey(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byKey[j.Key] == j {
		delete(s.byKey, j.Key)
	}
}

// retain applies the bounded retention policy to a terminal job.
func (s *Server) retain(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.doneOrder = append(s.doneOrder, j.ID)
	for len(s.doneOrder) > s.opts.retainJobs() {
		old := s.doneOrder[0]
		s.doneOrder = s.doneOrder[1:]
		delete(s.jobs, old)
	}
}

// QueueDepth reports the jobs accepted but not yet started.
func (s *Server) QueueDepth() int { return len(s.queue) }
