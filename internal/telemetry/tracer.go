package telemetry

import (
	"fmt"
	"io"

	"fasttrack/internal/noc"
	"fasttrack/internal/obs"
)

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Sample keeps only wire packets with |ID| % Sample == 0 (retransmit
	// copies carry fresh negative IDs and sample independently); values <= 1
	// trace everything. Sampling is what keeps saturated 16×16 runs bounded.
	Sample int64
	// Chrome receives Chrome trace-event JSON ({"traceEvents": [...]})
	// loadable in Perfetto / chrome://tracing: one async track per packet
	// (begin at injection, instants per hop/deflection, end at delivery),
	// with ts in microseconds standing in 1:1 for cycles. It must be non-nil.
	Chrome io.Writer
}

// Tracer is an Observer that streams per-packet lifecycle events as
// Perfetto trace events. Create with NewTracer and Close it after the run to
// terminate the JSON document and flush buffered output.
type Tracer struct {
	Base
	sample int64
	chrome *obs.TraceWriter
	begun  map[int64]bool
}

// NewTracer returns a Tracer writing to o.Chrome.
func NewTracer(o TracerOptions) *Tracer {
	return &Tracer{sample: o.Sample, chrome: obs.NewTraceWriter(o.Chrome), begun: make(map[int64]bool)}
}

// keep applies the sampling predicate.
func (t *Tracer) keep(p *noc.Packet) bool {
	if t.sample <= 1 {
		return true
	}
	id := p.ID
	if id < 0 {
		id = -id
	}
	return id%t.sample == 0
}

// tracerPID is the packet tracer's process in a merged Perfetto view (the
// sweep span log is pid 2, a daemon job pid 3).
const tracerPID = 1

// emit writes one event of packet p's async track on lane tid.
// Async events ("b"/"n"/"e") pair by (cat, scope, id), so the per-packet id
// string is the track key; string ids also keep negative retransmit IDs
// unambiguous.
func (t *Tracer) emit(ph string, now int64, tid int, p *noc.Packet, args map[string]any) {
	t.chrome.Emit(obs.Event{
		Name: "packet", Cat: "pkt", Ph: ph, ID: fmt.Sprint(p.ID),
		PID: tracerPID, TID: tid, TS: now, Args: args,
	})
}

// ensureBegin opens the packet's async track if it is not open yet. Hops
// fire inside Step while the engine reports the accepted injection after
// Step, so the first event seen for a packet may be its first hop; the
// begin event is therefore emitted lazily from whichever event arrives
// first (the packet header carries everything the begin needs).
func (t *Tracer) ensureBegin(now int64, p *noc.Packet) {
	if t.begun[p.ID] {
		return
	}
	t.begun[p.ID] = true
	t.emit("b", now, 0, p, map[string]any{
		"src": p.Src.String(), "dst": p.Dst.String(), "gen": p.Gen,
	})
}

// OnInject implements Observer.
func (t *Tracer) OnInject(now int64, p *noc.Packet) {
	if t.keep(p) {
		t.ensureBegin(now, p)
	}
}

// hopEvents name the deflection and denial instants.
var hopEvents = [...]string{HopDeflect: "deflect", HopDenied: "xdenied"}

// OnHop implements Observer: wire traversals are instants carrying the port
// and link class, deflections and denials are "deflect" and "xdenied"
// instants.
func (t *Tracer) OnHop(now int64, router int, port noc.Port, kind HopKind, p *noc.Packet) {
	if !t.keep(p) {
		return
	}
	t.ensureBegin(now, p)
	if kind == HopLocal || kind == HopExpress {
		t.emit("n", now, router, p, map[string]any{"port": port.String(), "express": port.IsExpress()})
	} else {
		t.emit("n", now, router, p, map[string]any{"event": hopEvents[kind], "port": port.String()})
	}
}

// OnDeliver implements Observer.
func (t *Tracer) OnDeliver(now int64, p *noc.Packet) {
	if !t.keep(p) {
		return
	}
	t.ensureBegin(now, p)
	t.endTrack(now, p, map[string]any{
		"latency":      now - p.Gen,
		"short_hops":   p.ShortHops,
		"express_hops": p.ExpressHops,
		"deflections":  p.Deflections,
	})
}

// OnDrop implements Observer.
func (t *Tracer) OnDrop(now int64, p *noc.Packet) {
	if t.keep(p) && t.begun[p.ID] {
		t.endTrack(now, p, map[string]any{"dropped": true})
	}
}

func (t *Tracer) endTrack(now int64, p *noc.Packet, args map[string]any) {
	t.emit("e", now, 0, p, args)
	delete(t.begun, p.ID)
}

// Close terminates the Chrome document and flushes all buffered output.
// It returns the first error encountered over the tracer's lifetime.
func (t *Tracer) Close() error { return t.chrome.Close() }

// TelemetryKey implements Keyer.
func (t *Tracer) TelemetryKey() string { return fmt.Sprintf("trace(sample=%d)", t.sample) }
