package serve

import (
	"net/http"
	"time"

	"fasttrack/internal/monitor"
)

func timeSince(t time.Time) float64 { return time.Since(t).Seconds() }

// handleMetrics is the fleet view in Prometheus text format: admission
// accounting (every decision lands in exactly one counter), terminal-state
// accounting, queue/worker gauges, and the shared sweep orchestrator's
// runner section — the same families internal/monitor serves per-run.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := monitor.NewPromWriter(w)

	p.Counter("ftserve_jobs_admitted_total", "Jobs accepted into the queue.", s.c.admitted.Load())
	p.Counter("ftserve_jobs_deduped_total", "POSTs joined to an identical in-flight job.", s.c.deduped.Load())

	p.Family("ftserve_rejected_total", "Admissions refused, by reason.", "counter")
	p.Sample("ftserve_rejected_total", `{reason="queue_full"}`, float64(s.c.rejectedQueue.Load()))
	p.Sample("ftserve_rejected_total", `{reason="rate_limited"}`, float64(s.c.rejectedRate.Load()))
	p.Sample("ftserve_rejected_total", `{reason="draining"}`, float64(s.c.rejectedDraining.Load()))
	p.Sample("ftserve_rejected_total", `{reason="bad_spec"}`, float64(s.c.badSpec.Load()))

	p.Family("ftserve_jobs_finished_total", "Jobs that reached a terminal state, by state.", "counter")
	p.Sample("ftserve_jobs_finished_total", `{state="done"}`, float64(s.c.finishedDone.Load()))
	p.Sample("ftserve_jobs_finished_total", `{state="failed"}`, float64(s.c.finishedFailed.Load()))
	p.Sample("ftserve_jobs_finished_total", `{state="canceled"}`, float64(s.c.finishedCanceled.Load()))

	p.Counter("ftserve_job_timeouts_total", "Jobs that hit their deadline.", s.c.timeouts.Load())
	p.Counter("ftserve_job_panics_total", "Jobs that panicked (isolated; daemon kept serving).", s.c.panics.Load())
	p.Counter("ftserve_cache_hits_total", "Jobs answered entirely from the result cache.", s.c.cacheHits.Load())
	p.Counter("ftserve_sse_dropped_frames_total", "SSE frames dropped to slow consumers (drop-oldest).", s.c.sseDropped.Load())

	p.Gauge("ftserve_queue_depth", "Jobs accepted but not yet started.", float64(s.QueueDepth()))
	p.Gauge("ftserve_queue_capacity", "Admission queue bound.", float64(s.opts.queueDepth()))
	p.Gauge("ftserve_jobs_running", "Jobs executing right now.", float64(s.c.running.Load()))
	draining := 0.0
	if s.Draining() {
		draining = 1
	}
	p.Gauge("ftserve_draining", "1 while admission is stopped for drain.", draining)
	p.Gauge("ftserve_uptime_seconds", "Seconds since the daemon started.", timeSince(s.start))

	// Stage-latency histograms: every sample is the exact duration of one
	// recorded span, so each family's _sum reconciles bit-for-bit with the
	// per-job span logs (/debug/trace) — asserted by TestMixedLoad.
	p.StageHist("ftserve_queue_wait",
		"Time jobs spent accepted but not started.", s.histQueueWait.Snapshot())
	p.StageHist("ftserve_run",
		"Wall clock of the job execution stage.", s.histRun.Snapshot())
	p.StageHist("ftserve_job_e2e",
		"End-to-end wall clock, admission to terminal state.", s.histE2E.Snapshot())
	p.StageHist("ftserve_sse_flush",
		"Per-frame SSE write+flush latency.", s.histSSEFlush.Snapshot())

	monitor.WriteRunnerMetrics(p, s.orch.Snapshot())
}
