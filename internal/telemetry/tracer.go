package telemetry

import (
	"bufio"
	"encoding/json"
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
	// JSONL, when non-nil, receives the native event stream: one JSON object
	// per line (see the ev field for the event vocabulary).
	JSONL io.Writer
	// Chrome, when non-nil, receives Chrome trace-event JSON ({"traceEvents":
	// [...]}) loadable in Perfetto / chrome://tracing: one async track per
	// packet (begin at injection, instants per hop/deflection, end at
	// delivery), with ts in microseconds standing in 1:1 for cycles.
	Chrome io.Writer
	// Width, when positive, lets router-level events carry (x, y) coordinates
	// in addition to the router index.
	Width int
}

// Tracer is an Observer that streams per-packet lifecycle events. Create
// with NewTracer and Close it after the run to flush buffered output and
// terminate the Chrome JSON document.
type Tracer struct {
	Base
	sample int64
	width  int

	jsonl  *bufio.Writer
	enc    *json.Encoder
	chrome *obs.TraceWriter

	begun  map[int64]bool
	events int64
	err    error
}

// NewTracer returns a Tracer writing to the sinks in o.
func NewTracer(o TracerOptions) *Tracer {
	t := &Tracer{sample: o.Sample, width: o.Width}
	if o.JSONL != nil {
		t.jsonl = bufio.NewWriter(o.JSONL)
		t.enc = json.NewEncoder(t.jsonl)
	}
	if o.Chrome != nil {
		t.chrome = obs.NewTraceWriter(o.Chrome)
		t.begun = make(map[int64]bool)
	}
	return t
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

func (t *Tracer) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// emitJSONL writes one native event line.
func (t *Tracer) emitJSONL(v any) {
	if t.enc == nil {
		return
	}
	if err := t.enc.Encode(v); err != nil {
		t.fail(err)
	}
}

// tracerPID is the packet tracer's process in a merged Perfetto view (the
// sweep span log is pid 2, a daemon job pid 3).
const tracerPID = 1

// emitChrome writes one event of packet p's async track on lane tid.
// Async events ("b"/"n"/"e") pair by (cat, scope, id), so the per-packet id
// string is the track key; string ids also keep negative retransmit IDs
// unambiguous.
func (t *Tracer) emitChrome(ph string, now int64, tid int, p *noc.Packet, args map[string]any) {
	if t.chrome == nil {
		return
	}
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
	if t.chrome == nil || t.begun[p.ID] {
		return
	}
	t.begun[p.ID] = true
	t.emitChrome("b", now, 0, p, map[string]any{
		"src": p.Src.String(), "dst": p.Dst.String(), "gen": p.Gen,
	})
}

func coords(c noc.Coord) []int { return []int{c.X, c.Y} }

// routerEvent is the JSONL shape of hop events.
type routerEvent struct {
	Ev      string `json:"ev"`
	Cycle   int64  `json:"cycle"`
	ID      int64  `json:"id"`
	Router  int    `json:"router"`
	X       *int   `json:"x,omitempty"`
	Y       *int   `json:"y,omitempty"`
	Port    string `json:"port"`
	Express bool   `json:"express,omitempty"`
}

// OnInject implements Observer.
func (t *Tracer) OnInject(now int64, p *noc.Packet) {
	if !t.keep(p) {
		return
	}
	t.events++
	t.emitJSONL(struct {
		Ev    string `json:"ev"`
		Cycle int64  `json:"cycle"`
		ID    int64  `json:"id"`
		Src   []int  `json:"src"`
		Dst   []int  `json:"dst"`
		Gen   int64  `json:"gen"`
	}{"inject", now, p.ID, coords(p.Src), coords(p.Dst), p.Gen})
	t.ensureBegin(now, p)
}

// hopEvents are the JSONL event names of the hop kinds.
var hopEvents = [...]string{"hop", "hop", "deflect", "xdenied"}

// OnHop implements Observer: wire traversals are "hop" events, deflections
// and denials are "deflect" and "xdenied" instants.
func (t *Tracer) OnHop(now int64, router int, port noc.Port, kind HopKind, p *noc.Packet) {
	if !t.keep(p) {
		return
	}
	t.events++
	ev := hopEvents[kind]
	re := routerEvent{Ev: ev, Cycle: now, ID: p.ID, Router: router, Port: port.String(), Express: port.IsExpress()}
	if t.width > 0 {
		x, y := router%t.width, router/t.width
		re.X, re.Y = &x, &y
	}
	t.emitJSONL(re)
	t.ensureBegin(now, p)
	if kind == HopLocal || kind == HopExpress {
		t.emitChrome("n", now, router, p, map[string]any{"port": port.String(), "express": port.IsExpress()})
	} else {
		t.emitChrome("n", now, router, p, map[string]any{"event": ev, "port": port.String()})
	}
}

// OnDeliver implements Observer.
func (t *Tracer) OnDeliver(now int64, p *noc.Packet) {
	if !t.keep(p) {
		return
	}
	t.events++
	t.emitJSONL(struct {
		Ev          string `json:"ev"`
		Cycle       int64  `json:"cycle"`
		ID          int64  `json:"id"`
		Latency     int64  `json:"latency"`
		ShortHops   int32  `json:"short_hops"`
		ExpressHops int32  `json:"express_hops"`
		Deflections int32  `json:"deflections"`
	}{"deliver", now, p.ID, now - p.Gen, p.ShortHops, p.ExpressHops, p.Deflections})
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
	if !t.keep(p) {
		return
	}
	t.events++
	t.emitJSONL(struct {
		Ev    string `json:"ev"`
		Cycle int64  `json:"cycle"`
		ID    int64  `json:"id"`
	}{"drop", now, p.ID})
	if t.chrome != nil && t.begun[p.ID] {
		t.endTrack(now, p, map[string]any{"dropped": true})
	}
}

// OnRetransmit implements Observer.
func (t *Tracer) OnRetransmit(now int64, p *noc.Packet) {
	if !t.keep(p) {
		return
	}
	t.events++
	t.emitJSONL(struct {
		Ev    string `json:"ev"`
		Cycle int64  `json:"cycle"`
		ID    int64  `json:"id"`
		Src   []int  `json:"src"`
		Dst   []int  `json:"dst"`
		Gen   int64  `json:"gen"`
	}{"retransmit", now, p.ID, coords(p.Src), coords(p.Dst), p.Gen})
}

func (t *Tracer) endTrack(now int64, p *noc.Packet, args map[string]any) {
	if t.chrome == nil {
		return
	}
	t.emitChrome("e", now, 0, p, args)
	delete(t.begun, p.ID)
}

// Events returns the number of sampled-in events emitted so far.
func (t *Tracer) Events() int64 { return t.events }

// Close terminates the Chrome document and flushes all buffered output.
// It returns the first error encountered over the tracer's lifetime.
func (t *Tracer) Close() error {
	if t.chrome != nil {
		t.fail(t.chrome.Close())
		t.chrome = nil
	}
	if t.jsonl != nil {
		if err := t.jsonl.Flush(); err != nil {
			t.fail(err)
		}
		t.jsonl = nil
	}
	return t.err
}

// TelemetryKey implements Keyer.
func (t *Tracer) TelemetryKey() string {
	return fmt.Sprintf("trace(sample=%d,jsonl=%t,chrome=%t)", t.sample, t.enc != nil, t.chrome != nil)
}
