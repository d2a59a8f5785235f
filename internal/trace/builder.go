package trace

// Builder accumulates events in topological order. Add returns the event's
// index for use as a dependency of later events.
//
// Builder is the in-memory Adder; Writer is the streaming one. Generators
// written against Adder (internal/workloads) produce either with the same
// emit code.
//
// Events go into chunks and dependency lists into arena blocks, so nothing
// is copied as a trace grows; Build hands over a single chunk (Grow's) or
// copies several once, and every Deps stays a capacity-clipped sub-slice.
type Builder struct {
	name   string
	pes    int
	n      int       // events added
	chunks [][]Event // filled in order; Add appends to the last
	arena  []int32   // unused tail of the current dependency block
}

// Compile-time conformance: both event sinks satisfy Adder, both trace
// representations satisfy Source.
var (
	_ Adder  = (*Builder)(nil)
	_ Adder  = (*Writer)(nil)
	_ Source = (*Trace)(nil)
	_ Source = (*Reader)(nil)
)

// NewBuilder starts a trace for a pes-PE system.
func NewBuilder(name string, pes int) *Builder {
	return &Builder{name: name, pes: pes}
}

// span is the size of the next chunk or arena block, at least need: the
// events added so far, clamped to [64, 4096], so storage doubles while a
// trace is small (a 50-event trace pays for no 4,096-event chunk) and then
// grows one fixed step at a time.
func (b *Builder) span(need int) int {
	return max(min(max(b.n, 64), 4096), need)
}

// Add appends an event and returns its index. deps must reference earlier
// events; they are copied, not retained.
func (b *Builder) Add(src, dst int, delay int32, deps ...int32) int32 {
	id := int32(b.n)
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == cap(b.chunks[last]) {
		b.chunks = append(b.chunks, make([]Event, 0, b.span(0)))
		last++
	}
	var ds []int32
	if n := len(deps); n > 0 {
		if n > len(b.arena) {
			b.arena = make([]int32, b.span(n))
		}
		ds = b.arena[:n:n]
		copy(ds, deps)
		b.arena = b.arena[n:]
	}
	b.chunks[last] = append(b.chunks[last], Event{Src: src, Dst: dst, Delay: delay, Deps: ds})
	b.n++
	return id
}

// Grow implements Adder. A wrong count costs memory, never an event.
func (b *Builder) Grow(events, deps int) {
	b.chunks = append(b.chunks, make([]Event, 0, events))
	b.arena = make([]int32, deps)
}

// Len returns the number of events added so far.
func (b *Builder) Len() int { return b.n }

// Build finalizes and validates the trace.
func (b *Builder) Build() (*Trace, error) {
	t := &Trace{Name: b.name, PEs: b.pes}
	if len(b.chunks) == 1 {
		t.Events = b.chunks[0][:b.n:b.n]
	} else if b.n > 0 {
		t.Events = make([]Event, 0, b.n)
		for _, c := range b.chunks {
			t.Events = append(t.Events, c...)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
