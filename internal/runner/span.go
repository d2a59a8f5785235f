// Sweep span tracing: every job an Orchestrator schedules can be recorded
// as a span (queued → running → done, with worker id, cache-hit flag and
// cache key) and exported as Chrome trace-event JSON through obs's one
// writer, so one Perfetto timeline shows the workers and cache hits of a
// whole sweep beside the packet tracer's output.
package runner

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"fasttrack/internal/obs"
)

// Span is one scheduled job's timeline entry. The embedded obs.Span holds
// its running interval: Start and End are the job's start and completion.
type Span struct {
	obs.Span
	// Index is the job's ForEach index; Worker is the pool slot it ran on.
	Index  int
	Worker int
	// TraceID/JobID are the request-scoped correlation handles of the batch
	// context's obs.JobTrace when the sweep runs under an ftserve job; empty
	// for CLI sweeps.
	TraceID string
	JobID   string
	// Queued is the batch's submission instant.
	Queued time.Time
	// CacheHit reports the job was answered from the result cache (set by
	// Do when the job's computation never ran).
	CacheHit bool
	// Key is the cache key of the last Do call inside the job, when any.
	Key string
	// Err is the job's error message, empty on success.
	Err string
}

// SpanLog collects spans from concurrent workers. The zero value is not
// usable; create with NewSpanLog.
type SpanLog struct {
	mu    sync.Mutex
	start time.Time
	spans []Span
}

// NewSpanLog returns an empty span log; the Chrome export's timestamps are
// relative to its creation.
func NewSpanLog() *SpanLog {
	return &SpanLog{start: time.Now()}
}

// add appends a finished span.
func (l *SpanLog) add(s Span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// Spans returns a copy of the recorded spans in completion order.
func (l *SpanLog) Spans() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.spans...)
}

// spanKey carries the in-flight span through the context ForEach hands each
// job, so Do can mark cache hits without a signature that names spans.
type spanKeyType struct{}

var spanKey spanKeyType

// spanFrom extracts the current job's span, or nil.
func spanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// spanPID separates sweep-job tracks from the packet tracer's pid 1, so a
// merged Perfetto view keeps the two layers apart.
const spanPID = 2

// WriteChrome exports the log as Chrome trace-event JSON (ts/dur in
// microseconds since log creation): one lane per worker in ascending worker
// order, then one slice per job in completion order, loadable in Perfetto or
// chrome://tracing alongside the packet tracer's output.
func (l *SpanLog) WriteChrome(w io.Writer) error {
	l.mu.Lock()
	spans := append([]Span(nil), l.spans...)
	start := l.start
	l.mu.Unlock()

	tw := obs.NewTraceWriter(w)
	workers := make([]int, len(spans))
	for i, s := range spans {
		workers[i] = s.Worker
	}
	slices.Sort(workers)
	for _, wid := range slices.Compact(workers) {
		tw.Emit(obs.Metadata("thread_name", spanPID, wid, fmt.Sprintf("worker %d", wid)))
	}
	for _, s := range spans {
		args := map[string]any{
			"index":     s.Index,
			"cache_hit": s.CacheHit,
			"queued_us": s.Start.Sub(s.Queued).Microseconds(),
		}
		if s.TraceID != "" {
			args["trace_id"] = s.TraceID
		}
		if s.JobID != "" {
			args["job_id"] = s.JobID
		}
		if s.Key != "" {
			args["key"] = s.Key
		}
		if s.Err != "" {
			args["error"] = s.Err
		}
		job := s.Span
		job.Name = fmt.Sprintf("job %d", s.Index)
		if s.CacheHit {
			job.Name += " (cached)"
		}
		tw.Emit(job.Event(start, spanPID, s.Worker, "sweep", args))
	}
	return tw.Close()
}
