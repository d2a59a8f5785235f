package obs

import (
	"sync"
	"time"
)

// Span is one finished interval: a stage of a job's lifecycle here, and the
// interval of every sweep job (runner.Span embeds it). Durations are stored
// as the two wall-clock instants; DurNS is what the metrics layer and the
// wire forms expose, so a span and the histogram sample recorded from it
// carry the identical nanosecond count (the exactness the reconciliation
// tests assert).
type Span struct {
	Name       string
	Start, End time.Time
	Attrs      map[string]any
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// JobTrace records the stage spans of one request as it crosses layers:
// admission, queue wait, the simulation itself, SSE streaming. It is safe
// for concurrent use (sweep jobs add engine spans from worker goroutines
// while an SSE handler times its stream).
type JobTrace struct {
	mu      sync.Mutex
	traceID string
	jobID   string
	start   time.Time
	spans   []Span
}

// NewJobTrace starts an empty trace; Perfetto timestamps are relative to
// this instant. An empty traceID gets a generated one.
func NewJobTrace(traceID string) *JobTrace {
	if traceID == "" {
		traceID = NewTraceID()
	}
	return &JobTrace{traceID: traceID, start: time.Now()}
}

// TraceID returns the trace's correlation ID.
func (t *JobTrace) TraceID() string { return t.traceID }

// SetJobID attaches the daemon-assigned job ID once admission succeeds.
func (t *JobTrace) SetJobID(id string) {
	t.mu.Lock()
	t.jobID = id
	t.mu.Unlock()
}

// JobID returns the attached job ID, "" before admission.
func (t *JobTrace) JobID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobID
}

// Start returns the trace's creation instant (the e2e span's origin).
func (t *JobTrace) Start() time.Time { return t.start }

// Add appends an externally-timed span.
func (t *JobTrace) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Event records an instant (zero-duration) span, e.g. a duplicate POST
// joining this job.
func (t *JobTrace) Event(name string, attrs map[string]any) {
	if t == nil {
		return
	}
	now := time.Now()
	t.Add(Span{Name: name, Start: now, End: now, Attrs: attrs})
}

// Spans returns a copy of the recorded spans in completion order.
func (t *JobTrace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Pending is a stage span in progress; End appends it to the trace.
// All methods are nil-safe so call sites need no trace-enabled branch.
type Pending struct {
	t  *JobTrace
	sp Span
}

// Begin opens a stage span now. A nil *JobTrace yields a nil-safe Pending
// that records nothing.
func (t *JobTrace) Begin(name string) *Pending {
	if t == nil {
		return nil
	}
	return &Pending{t: t, sp: Span{Name: name, Start: time.Now()}}
}

// Attr attaches a key/value to the span; returns p for chaining.
func (p *Pending) Attr(k string, v any) *Pending {
	if p == nil {
		return nil
	}
	if p.sp.Attrs == nil {
		p.sp.Attrs = map[string]any{}
	}
	p.sp.Attrs[k] = v
	return p
}

// End closes the span, appends it, and returns its duration.
func (p *Pending) End() time.Duration {
	if p == nil {
		return 0
	}
	p.sp.End = time.Now()
	p.t.Add(p.sp)
	return p.sp.Dur()
}

// SpanJSON is the wire form of one span: offsets relative to the trace
// start in microseconds (Perfetto's unit) plus the exact duration in
// nanoseconds — dur_ns is the field span-vs-metrics reconciliation sums.
type SpanJSON struct {
	Name    string         `json:"name"`
	StartUS int64          `json:"ts_us"`
	DurNS   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Export is the trace's client-facing JSON form (the SSE `trace` frame).
type Export struct {
	TraceID string     `json:"trace_id"`
	JobID   string     `json:"job_id,omitempty"`
	Spans   []SpanJSON `json:"spans"`
}

// Export snapshots the trace for JSON serialization.
func (t *JobTrace) Export() Export {
	if t == nil {
		return Export{}
	}
	t.mu.Lock()
	ex := Export{TraceID: t.traceID, JobID: t.jobID, Spans: make([]SpanJSON, len(t.spans))}
	for i, s := range t.spans {
		ex.Spans[i] = SpanJSON{
			Name:    s.Name,
			StartUS: s.Start.Sub(t.start).Microseconds(),
			DurNS:   int64(s.Dur()),
			Attrs:   s.Attrs,
		}
	}
	t.mu.Unlock()
	return ex
}
