package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"maps"
	"time"
)

// Event is one record of the Chrome trace-event format, the one wire format
// every Perfetto export in the repo writes. Each export owns a process id so
// one Perfetto session can load them side by side: pid 1 is the packet
// tracer (internal/telemetry), pid 2 the sweep span log (internal/runner),
// pid 3 a daemon job's lifecycle (JobTrace). The field order and the
// omitted-when-empty fields are part of the format: every export's bytes
// depend on them.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	ID   string         `json:"id,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Metadata returns the "M" event that names a process or thread lane: kind
// is "process_name" or "thread_name".
func Metadata(kind string, pid, tid int, name string) Event {
	return Event{Name: kind, Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}}
}

// Event converts the span to a trace event on lane (pid, tid), timed in
// microseconds from origin. A span with a duration is a complete ("X")
// slice of at least 1 µs, since zero-width slices are invisible in
// Perfetto; a zero-length span is a process-scoped instant.
func (s Span) Event(origin time.Time, pid, tid int, cat string, args map[string]any) Event {
	ev := Event{Name: s.Name, Cat: cat, PID: pid, TID: tid, TS: s.Start.Sub(origin).Microseconds(), Args: args}
	if d := s.Dur(); d > 0 {
		ev.Ph, ev.Dur = "X", max(d.Microseconds(), 1)
	} else {
		ev.Ph, ev.S = "i", "p"
	}
	return ev
}

// TraceWriter streams one Chrome trace-event document,
// {"traceEvents":[...]}, through a buffer. The first error is sticky: later
// Emits do nothing and Close returns it.
type TraceWriter struct {
	w   *bufio.Writer
	n   int64
	err error
}

// NewTraceWriter opens a document on w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	tw := &TraceWriter{w: bufio.NewWriter(w)}
	_, tw.err = tw.w.WriteString(`{"traceEvents":[`)
	return tw
}

// Emit appends one event.
func (tw *TraceWriter) Emit(ev Event) {
	if tw.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err == nil && tw.n > 0 {
		err = tw.w.WriteByte(',')
	}
	if err == nil {
		_, err = tw.w.Write(b)
	}
	tw.n++
	tw.err = err
}

// Close terminates the document and flushes it; it does not close the
// underlying writer. It returns the first error of the writer's lifetime.
func (tw *TraceWriter) Close() error {
	if tw.err == nil {
		_, tw.err = tw.w.WriteString("]}\n")
	}
	if tw.err == nil {
		tw.err = tw.w.Flush()
	}
	return tw.err
}

// jobPID keeps job-lifecycle tracks apart from the packet tracer (pid 1)
// and the sweep span log (pid 2) in a merged Perfetto view.
const jobPID = 3

// Track IDs inside the job process: lifecycle stages on one lane, SSE
// subscriber streams on another so their overlap with `run` stays readable.
const (
	tidLifecycle = 1
	tidSSE       = 2
)

// WriteChrome exports the trace as a Chrome trace-event document (ts/dur
// in microseconds since trace creation), loadable in Perfetto or
// chrome://tracing. Every event carries the trace_id and the exact dur_ns in
// its args, with the span's own attrs merged over them.
func (t *JobTrace) WriteChrome(w io.Writer) error {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	traceID, jobID, start := t.traceID, t.jobID, t.start
	t.mu.Unlock()

	tw := NewTraceWriter(w)
	name := "ftserve job"
	if jobID != "" {
		name += " " + jobID
	}
	tw.Emit(Metadata("process_name", jobPID, 0, name))
	tw.Emit(Metadata("thread_name", jobPID, tidLifecycle, "lifecycle"))
	tw.Emit(Metadata("thread_name", jobPID, tidSSE, "sse"))
	for _, s := range spans {
		tid := tidLifecycle
		if s.Name == "sse_stream" {
			tid = tidSSE
		}
		args := map[string]any{"trace_id": traceID, "dur_ns": int64(s.Dur())}
		if jobID != "" {
			args["job_id"] = jobID
		}
		maps.Copy(args, s.Attrs)
		tw.Emit(s.Event(start, jobPID, tid, "job", args))
	}
	return tw.Close()
}
