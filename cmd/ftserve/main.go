// Command ftserve is the simulation-as-a-service daemon: a long-running
// HTTP server where clients POST sim/sweep job specs as JSON, stream
// progress and windowed metrics over SSE, and fetch results — all deduped
// through the shared content-addressed run cache.
//
//	ftserve -addr :8080 &
//	curl -d '{"kind":"sim"}' localhost:8080/jobs
//	curl localhost:8080/jobs/j000001
//	curl -N localhost:8080/jobs/j000001/stream
//	curl localhost:8080/metrics
//
// The daemon is built to degrade, not fall over: a bounded admission queue
// (429 + Retry-After past it), per-client token-bucket rate limits, per-job
// deadlines, per-job panic isolation, drop-oldest backpressure on slow SSE
// consumers, and graceful drain on SIGTERM/SIGINT — admission stops, accepted
// jobs finish (or are cleanly cancelled at -drain-timeout), then the process
// exits with zero accepted-job loss.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fasttrack/internal/cliflags"
	"fasttrack/internal/runner"
	"fasttrack/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = one per CPU)")
	sweepWorkers := flag.Int("sweep-workers", 0, "per-job simulation fan-out (0 = one per CPU)")
	queue := flag.Int("queue", 64, "admission queue bound; POSTs past it answer 429")
	rate := flag.Float64("client-rate", 0, "per-client admissions per second (0 = unlimited)")
	burst := flag.Float64("client-burst", 8, "per-client admission burst")
	jobTimeout := flag.Duration("job-timeout", 0, "server-side cap on each job's wall clock (0 = none)")
	cacheDir := flag.String("cache-dir", runner.DefaultCacheDir, "content-addressed result cache directory")
	noCache := flag.Bool("no-cache", false, "disable the result cache")
	retain := flag.Int("retain", 4096, "finished jobs kept fetchable before eviction")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on SIGTERM before cancellation")
	logf := cliflags.RegisterLogging(flag.CommandLine, "info")
	flag.Parse()

	logger, err := logf.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftserve:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	s, err := serve.New(serve.Options{
		QueueDepth:   *queue,
		Workers:      *workers,
		SweepWorkers: *sweepWorkers,
		RatePerSec:   *rate,
		Burst:        *burst,
		JobTimeout:   *jobTimeout,
		CacheDir:     *cacheDir,
		NoCache:      *noCache,
		RetainJobs:   *retain,
		Logger:       logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftserve:", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("ftserve serving", "addr", *addr, "queue", *queue, "drain_timeout", *drainTimeout)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "ftserve:", err)
		os.Exit(1)
	case sig := <-sigc:
		logger.Info("draining on signal", "signal", sig.String(), "grace", *drainTimeout)
	}

	// Drain first — admission answers 503 while in-flight jobs finish — then
	// close the listener. Past the grace period jobs are cancelled
	// cooperatively; either way every accepted job reached a terminal state.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		logger.Warn("drain deadline hit; remaining jobs cancelled", "error", err)
	} else {
		logger.Info("drained cleanly")
	}
	shctx, shcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shcancel()
	if err := hs.Shutdown(shctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("http shutdown", "error", err)
	}
}
