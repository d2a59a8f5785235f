package trace

// This file is the trace.Source API: sequential, header-first access to a
// trace's events that does not require them to be resident in memory. The
// in-memory *Trace and the streaming FTT1 *Reader both implement Source, so
// everything downstream — core.RunTrace, runner cache keys, the experiment
// harness, fttrace — replays a generated trace and a recorded multi-gigabyte
// trace file through one code path.

// Header is the identity of a trace: everything a consumer can know without
// scanning events. Cache keys (runner.TraceKey) are built from it alone, so
// a recorded trace file answers warm-sweep lookups without being read past
// its first few dozen bytes.
type Header struct {
	// Name labels the workload (e.g. "spmv/circuit-large").
	Name string
	// PEs is the number of logical PEs the trace addresses.
	PEs int
	// Events is the total event count.
	Events int64
	// Fingerprint is the content hash (Trace.Fingerprint algorithm) over
	// name, PEs and every event.
	Fingerprint uint64
}

// Source is sequential access to one trace. Implementations: *Trace (events
// in memory) and *Reader (events streamed from an FTT1 file or reader).
type Source interface {
	// Header returns the trace identity. Streaming implementations answer
	// from header fields alone, but *Trace pays one fingerprint pass over
	// every event per call, so callers take it once and pass the value on.
	Header() Header
	// Open starts a cursor at event 0. File-backed sources support any
	// number of concurrent cursors; one-shot stream sources return an error
	// on the second call.
	Open() (Cursor, error)
}

// Cursor iterates a trace's events in index order.
type Cursor interface {
	// Next decodes event number i (starting at 0) into e, returning false
	// at the end of the trace. e.Deps aliases an internal buffer that is
	// only valid until the following Next call; copy it to retain it.
	Next(e *Event) (bool, error)
	// Close releases the cursor. It is safe to call after Next returned
	// false, and again after Close.
	Close() error
}

// Adder accepts events in topological order; the index returned by Add
// names the event as a dependency of later ones. Builder (in-memory) and
// Writer (streaming FTT1) both implement it, so a generator written against
// Adder emits traces far larger than RAM for free.
type Adder interface {
	// Add appends an event and returns its index. deps must reference
	// earlier events. Add does not retain deps (Builder copies them, Writer
	// encodes them at once), so a caller may reuse one slice for every call.
	Add(src, dst int, delay int32, deps ...int32) int32
	// Grow announces the next Adds' event and dependency-entry counts.
	Grow(events, deps int)
	// Len returns the number of events added so far.
	Len() int
}

// Header implements Source for the in-memory trace.
func (t *Trace) Header() Header {
	hdr := t.shape()
	hdr.Fingerprint = t.Fingerprint()
	return hdr
}

// shape is Header without the fingerprint pass, for the callers that read
// only name, PE count and event count (NewWorkload, WriteText).
func (t *Trace) shape() Header {
	return Header{Name: t.Name, PEs: t.PEs, Events: int64(len(t.Events))}
}

// Open implements Source for the in-memory trace.
func (t *Trace) Open() (Cursor, error) { return &sliceCursor{t: t}, nil }

// sliceCursor iterates an in-memory trace.
type sliceCursor struct {
	t *Trace
	i int
}

func (c *sliceCursor) Next(e *Event) (bool, error) {
	if c.i >= len(c.t.Events) {
		return false, nil
	}
	*e = c.t.Events[c.i]
	c.i++
	return true, nil
}

func (c *sliceCursor) Close() error { return nil }
