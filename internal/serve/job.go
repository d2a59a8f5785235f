package serve

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"fasttrack/internal/cliflags"
	"fasttrack/internal/obs"
	"fasttrack/internal/sim"
)

// State is a job's lifecycle position. Terminal states are StateDone,
// StateFailed and StateCanceled; every accepted job reaches exactly one.
type State string

// Job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether st is an end state.
func (st State) Terminal() bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}

// Failure is the structured error a job surfaces to clients: Kind
// distinguishes a timeout from a cancellation from a panic from a plain
// simulation error, which is the distinction retry logic needs.
type Failure struct {
	Kind    string `json:"kind"` // "timeout" | "canceled" | "panic" | "error"
	Message string `json:"message"`
	// Stack is populated for panics (isolation keeps the daemon alive; the
	// stack keeps the bug debuggable).
	Stack string `json:"stack,omitempty"`
}

// ResultSummary is the wire form of one simulation result: the paper's
// measurements without the heavyweight histogram payloads.
type ResultSummary struct {
	Config        string  `json:"config"`
	Rate          float64 `json:"rate"`
	Cycles        int64   `json:"cycles"`
	Injected      int64   `json:"injected"`
	Delivered     int64   `json:"delivered"`
	SustainedRate float64 `json:"sustained_rate"`
	AvgLatency    float64 `json:"avg_latency"`
	WorstLatency  int64   `json:"worst_latency"`
	P50           int64   `json:"p50"`
	P99           int64   `json:"p99"`
	TimedOut      bool    `json:"timed_out,omitempty"`
	Converged     bool    `json:"converged,omitempty"`
	// Cached marks a result answered from the content-addressed cache
	// rather than simulated fresh.
	Cached bool `json:"cached,omitempty"`
}

func summarize(config string, rate float64, r sim.Result, cached bool) ResultSummary {
	return ResultSummary{
		Config: config, Rate: rate,
		Cycles: r.Cycles, Injected: r.Injected, Delivered: r.Delivered,
		SustainedRate: r.SustainedRate, AvgLatency: r.AvgLatency,
		WorstLatency: r.WorstLatency, P50: r.P50, P99: r.P99,
		TimedOut: r.TimedOut, Converged: r.Converged, Cached: cached,
	}
}

// Status is the client-visible job view, served on GET /jobs/{id} and as
// every SSE status frame.
type Status struct {
	ID       string     `json:"id"`
	TraceID  string     `json:"trace_id,omitempty"`
	Kind     string     `json:"kind"`
	State    State      `json:"state"`
	Cached   bool       `json:"cached,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    *Failure   `json:"error,omitempty"`
	// Result is kind-shaped: ResultSummary (sim) or []ResultSummary
	// (sweep); present only in terminal StateDone.
	Result any `json:"result,omitempty"`
}

// Job is one admitted request. All mutable state sits behind mu; SSE
// subscribers receive frames through bounded buffered channels that are
// only sent to and closed under mu (obs.OfferFrame: drop-oldest, never
// blocking).
type Job struct {
	ID   string
	Spec *cliflags.JobSpec
	Key  string
	// Client is the admission identity (X-Client header or remote host) of
	// the submitter; it rides along as a slog attr.
	Client string

	srv *Server

	// trace is the job's span recorder; queueWait is the pending span opened
	// at admission and closed by runJob at the queued→running transition.
	trace     *obs.JobTrace
	queueWait *obs.Pending

	mu       sync.Mutex
	state    State
	cached   bool
	failure  *Failure
	result   any
	created  time.Time
	started  time.Time
	finished time.Time
	subs     map[chan []byte]struct{}

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

func newJob(s *Server, seq int64, spec *cliflags.JobSpec, key string, tr *obs.JobTrace, client string) *Job {
	j := &Job{
		ID:      fmt.Sprintf("j%06d", seq),
		Spec:    spec,
		Key:     key,
		Client:  client,
		srv:     s,
		trace:   tr,
		state:   StateQueued,
		created: time.Now(),
		subs:    make(map[chan []byte]struct{}),
		done:    make(chan struct{}),
	}
	tr.SetJobID(j.ID)
	return j
}

// TraceID returns the job's correlation ID (inbound X-Ftserve-Trace-Id or
// generated at admission).
func (j *Job) TraceID() string { return j.trace.TraceID() }

// Trace exposes the job's span recorder (the /debug/trace/{job} source).
func (j *Job) Trace() *obs.JobTrace { return j.trace }

// Done returns a channel closed at the job's terminal transition.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status snapshots the client-visible view.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() Status {
	st := Status{
		ID: j.ID, TraceID: j.trace.TraceID(), Kind: j.Spec.Kind,
		State: j.state, Cached: j.cached,
		Created: j.created, Error: j.failure,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state == StateDone {
		st.Result = j.result
	}
	return st
}

// sseFrame renders one Server-Sent-Events frame.
func sseFrame(event string, payload any) []byte {
	b, err := json.Marshal(payload)
	if err != nil {
		b = []byte(`{}`)
	}
	return []byte("event: " + event + "\ndata: " + string(b) + "\n\n")
}

// publish fans an event frame out to every subscriber.
func (j *Job) publish(event string, payload any) {
	b := sseFrame(event, payload)
	j.mu.Lock()
	for ch := range j.subs {
		obs.OfferFrame(ch, b, &j.srv.c.sseDropped)
	}
	j.mu.Unlock()
}

// subscribe registers an SSE consumer. A live job's first buffered frame is
// its current status; a finished job yields its span trace followed by the
// terminal status frame (the same order finish emits: terminal status last)
// and closes.
func (j *Job) subscribe() chan []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan []byte, sseBuf)
	if j.state.Terminal() {
		ch <- sseFrame("trace", j.trace.Export())
		ch <- sseFrame("status", j.statusLocked())
		close(ch)
		return ch
	}
	ch <- sseFrame("status", j.statusLocked())
	j.subs[ch] = struct{}{}
	return ch
}

func (j *Job) unsubscribe(ch chan []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
		close(ch)
	}
}

// setRunning marks the queued→running transition and announces it.
func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	frame := sseFrame("status", j.statusLocked())
	for ch := range j.subs {
		obs.OfferFrame(ch, frame, &j.srv.c.sseDropped)
	}
	j.mu.Unlock()
}

// finish records the terminal state, emits the job's span trace followed by
// the final status frame, and closes every subscriber; after it returns the
// job is immutable. The trace frame precedes the status frame so a client
// that stops at the terminal status still saw its spans.
func (j *Job) finish(state State, cached bool, result any, failure *Failure) {
	traceFrame := sseFrame("trace", j.trace.Export())
	j.mu.Lock()
	j.state = state
	j.cached = cached
	j.result = result
	j.failure = failure
	j.finished = time.Now()
	frame := sseFrame("status", j.statusLocked())
	for ch := range j.subs {
		obs.OfferFrame(ch, traceFrame, &j.srv.c.sseDropped)
		obs.OfferFrame(ch, frame, &j.srv.c.sseDropped)
		close(ch)
	}
	j.subs = nil
	close(j.done)
	j.mu.Unlock()
}
