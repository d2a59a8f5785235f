package trace

import (
	"fmt"
	"math"
	"runtime"

	"fasttrack/internal/noc"
)

// DefaultStreamWindow is the default cap on resident events for a streaming
// replay (see StreamOptions.Window).
const DefaultStreamWindow = 1 << 18

// StreamOptions tunes a streaming replay.
type StreamOptions struct {
	// Window caps the number of resident events: read from the source but
	// not yet retired. Replay heap usage is O(Window) — independent of the
	// trace's event count — which is what lets a 100M-event trace replay in
	// a few tens of megabytes. 0 means DefaultStreamWindow. The bound holds
	// per live replay: a released Stream's buffers are reused by the next
	// replay, not added to it (see Release).
	//
	// When the window never binds (Window ≥ the trace's live-event high
	// water mark, always true when Window ≥ total events), the replay is
	// cycle-exact to one with every event resident (NewWorkload): every
	// event is registered before its dependencies complete, so readiness
	// times are computed identically (golden-tested in core). When it
	// binds, reading stalls until completions retire resident events —
	// modeling a bounded trace-injection FIFO, as in FPGA trace-injection
	// harnesses — and an event whose dependency already retired is
	// scheduled relative to its (late) read cycle instead, which can only
	// delay injection, never reorder a dependency.
	Window int
}

// Stream replays a trace against a network as a sim.Workload, in O(window)
// memory: events are decoded from a Cursor on demand and their state lives
// in a fixed-size ring. Injection is dependency-driven: event i becomes
// ready Delay cycles after its last dependency is delivered (root events
// become ready at Delay), and each PE injects its ready events in readiness
// order.
//
// Self-addressed events (src == dst) model local compute handoffs: they
// complete without network traffic, after their Delay, and release their
// dependents — important for the LU dataflow traces where much of the DAG
// is local.
//
// It is the only replay machine: NewWorkload is a Stream whose window holds
// the whole trace.
type Stream struct {
	cur    Cursor
	hdr    Header
	width  int
	window int

	// Resident events occupy ring slots [low, head) modulo len(ring). A
	// slot is retired (low advances past it) once its event completed and
	// every earlier event completed too; its completion time is forgotten
	// at that point, which is what bounds memory.
	ring      []evSlot
	low, head int64
	eof       bool
	err       error
	completed int64

	// Dependents lists are threaded through a pool of edges. The pool grows
	// by fixed-size chunks, so growth never copies and costs one allocation
	// per edgeChunk edges rather than one per event; a completed event's
	// edges go back on the free list, so the pool stays O(window).
	edges    [][]edge
	edgeN    int32 // edges carved from chunks so far
	freeEdge int32 // head of the free list, noEdge when empty

	readyQ []eventHeap // per PE, keyed by ready time
	// selfQ holds ready self-addressed events, completed during Tick.
	selfQ eventHeap
	// live lists PEs with a non-empty readyQ (inLive guards duplicates); it
	// backs the sim.ActiveSet fast path. A PE whose head event is still in
	// the future stays listed — ActivePEs may return a superset — and PEs
	// are dropped lazily once their queue drains.
	live   []int
	inLive []bool
	now    int64 // current cycle, for conservative late-read scheduling

	// chg lists the PEs whose head may have changed since the last Changed
	// call (sim.ChangeReporter): a head that became ready, or was displaced
	// by a new head, or exposed by Injected. wake holds (ready cycle, PE)
	// for heads that become ready with time, turned into changes by Tick.
	// chg is kept only once Changed has been called (report), so a stream no
	// caller drains never grows it.
	chg    []int
	wake   eventHeap
	report bool

	// scratch is the decode target reused across fill calls; a local would
	// escape through the Cursor interface and allocate once per event.
	scratch Event
}

// evSlot is the resident state of one in-flight event (32 bytes).
type evSlot struct {
	src, dst  int32
	delay     int32
	remaining int32 // unmet dependency count
	doneAt    int64 // completion cycle; notDone until then
	// first and last bound the list of later resident events waiting on
	// this one. Appending at last releases dependents in registration
	// order, so PEs enter the live set — and an observer sees their offers —
	// in the same order for every window that does not bind.
	first, last int32
}

// edge is one dependents-list node: ev waits on the list's owner.
type edge struct{ ev, next int32 }

const (
	notDone       = -1 // evSlot.doneAt before completion; cycles are never negative
	noEdge        = -1
	edgeChunkBits = 10
	edgeChunk     = 1 << edgeChunkBits
)

// NewStream prepares a streaming replay of src on a width×height network.
func NewStream(src Source, width, height int, opts StreamOptions) (*Stream, error) {
	window := opts.Window
	if window <= 0 {
		window = DefaultStreamWindow
	}
	return newStream(src, src.Header(), width, height, window)
}

// newStream builds the replay of src, whose header the caller already holds
// (hdr.Fingerprint is not read).
func newStream(src Source, hdr Header, width, height, window int) (*Stream, error) {
	if hdr.PEs <= 0 {
		return nil, fmt.Errorf("trace %q: no PEs", hdr.Name)
	}
	if hdr.PEs != width*height {
		return nil, fmt.Errorf("trace %q targets %d PEs, network has %d", hdr.Name, hdr.PEs, width*height)
	}
	if hdr.Events > math.MaxInt32 {
		return nil, fmt.Errorf("trace %q: %d events overflow the int32 event-id space", hdr.Name, hdr.Events)
	}
	// The ring never needs more slots than the trace has events.
	if int64(window) > hdr.Events {
		window = int(hdr.Events)
	}
	if window < 1 {
		window = 1
	}
	cur, err := src.Open()
	if err != nil {
		return nil, err
	}
	// A released Stream keeps its buffers' arrays. Every scalar restarts
	// from zero; ring slots and edges are written by admit and newEdge
	// before they are read, so only lengths, the edge pool's counters and
	// the per-PE flags need clearing.
	s := streams.get(func() *Stream { return new(Stream) })
	*s = Stream{
		cur:      cur,
		hdr:      hdr,
		width:    width,
		window:   window,
		ring:     resized(s.ring, window),
		edges:    s.edges,
		freeEdge: noEdge,
		readyQ:   resized(s.readyQ, hdr.PEs),
		selfQ:    s.selfQ[:0],
		live:     s.live[:0],
		inLive:   resized(s.inLive, hdr.PEs),
		chg:      s.chg[:0],
		wake:     s.wake[:0],
	}
	for pe := range s.readyQ {
		s.readyQ[pe] = s.readyQ[pe][:0]
	}
	clear(s.inLive)
	s.fill()
	if err := s.err; err != nil {
		s.Release()
		return nil, err
	}
	return s, nil
}

// freeList is a leaky buffer of at most GOMAXPROCS released buffers, one per
// replay that can run at once; unlike a sync.Pool's, no collection empties it.
type freeList[T any] chan T

func (l freeList[T]) get(fresh func() T) T {
	select {
	case it := <-l:
		return it
	default:
		return fresh()
	}
}

func (l freeList[T]) put(it T) {
	select {
	case l <- it:
	default:
	}
}

// streams holds released Streams, none with a ring past DefaultStreamWindow:
// at most GOMAXPROCS 8 MiB rings and the heaps and edges grown beside them.
var streams = make(freeList[*Stream], runtime.GOMAXPROCS(0))

// resized returns buf with length n, reusing its array when it is big enough.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Release hands the Stream's buffers to the next replay. It closes the
// cursor and drops it, the header and the decode scratch, so a released
// Stream keeps no trace reachable. The Stream must not be used afterwards;
// one that is never released is garbage-collected as usual.
func (s *Stream) Release() {
	s.cur.Close()
	s.cur, s.hdr, s.scratch = nil, Header{}, Event{}
	if cap(s.ring) <= DefaultStreamWindow {
		streams.put(s)
	}
}

// fill reads events until the window is full or the source is exhausted.
// Dependencies always point at earlier events, so everything a new event
// needs is either resident or already retired — reading never deadlocks.
func (s *Stream) fill() {
	for s.err == nil && !s.eof && s.head-s.low < int64(s.window) {
		ok, err := s.cur.Next(&s.scratch)
		if err != nil {
			s.fail(err)
			return
		}
		if !ok {
			s.eof = true
			if s.head != s.hdr.Events {
				s.fail(fmt.Errorf("trace %q: source ended at event %d of %d", s.hdr.Name, s.head, s.hdr.Events))
			}
			s.cur.Close()
			return
		}
		s.admit(&s.scratch)
	}
}

// admit registers the next event (index s.head) in the ring and schedules it
// if all its dependencies already completed. The event is checked first: the
// cursor may be a hand-built *Trace or a third-party Source that validates
// nothing, and an out-of-range endpoint or a forward dependency would index
// past readyQ or alias a ring slot.
func (s *Stream) admit(e *Event) {
	idx := s.head
	if err := checkEvent(s.hdr.PEs, idx, e.Src, e.Dst, e.Delay, e.Deps); err != nil {
		s.fail(fmt.Errorf("trace %q: %w", s.hdr.Name, err))
		return
	}
	if int64(s.edgeN)+int64(len(e.Deps)) > math.MaxInt32 {
		s.fail(fmt.Errorf("trace %q: event %d overflows the int32 dependency-edge space", s.hdr.Name, idx))
		return
	}
	slot := &s.ring[idx%int64(s.window)]
	*slot = evSlot{src: int32(e.Src), dst: int32(e.Dst), delay: e.Delay, doneAt: notDone, first: noEdge, last: noEdge}
	var base int64 // completion time of the latest already-done dependency
	for _, d := range e.Deps {
		if int64(d) < s.low {
			// The dependency completed and was retired before this event was
			// read — only possible when the window binds. Its completion
			// time is forgotten, so schedule relative to the read cycle (a
			// delay, never a reorder; see StreamOptions.Window).
			if s.now > base {
				base = s.now
			}
			continue
		}
		dep := &s.ring[int64(d)%int64(s.window)]
		if dep.doneAt != notDone {
			if dep.doneAt > base {
				base = dep.doneAt
			}
			continue
		}
		n := s.newEdge()
		*s.edgeAt(n) = edge{ev: int32(idx), next: noEdge}
		if dep.last == noEdge {
			dep.first = n
		} else {
			s.edgeAt(dep.last).next = n
		}
		dep.last = n
		slot.remaining++
	}
	s.head++
	if slot.remaining == 0 {
		s.schedule(int32(idx), base+int64(slot.delay))
	}
}

func (s *Stream) edgeAt(n int32) *edge {
	return &s.edges[n>>edgeChunkBits][n&(edgeChunk-1)]
}

// newEdge takes an edge off the free list, carving a new chunk when the
// pool is exhausted.
func (s *Stream) newEdge() int32 {
	if n := s.freeEdge; n != noEdge {
		s.freeEdge = s.edgeAt(n).next
		return n
	}
	n := s.edgeN
	if int(n>>edgeChunkBits) == len(s.edges) {
		s.edges = append(s.edges, make([]edge, edgeChunk))
	}
	s.edgeN++
	return n
}

func (s *Stream) schedule(ev int32, readyAt int64) {
	slot := &s.ring[int64(ev)%int64(s.window)]
	if slot.src == slot.dst {
		s.selfQ.pushItem(item{ev: ev, readyAt: readyAt})
		return
	}
	s.readyQ[slot.src].pushItem(item{ev: ev, readyAt: readyAt})
	if s.readyQ[slot.src][0].ev == ev {
		s.headChanged(int(slot.src))
	}
	if !s.inLive[slot.src] {
		s.inLive[slot.src] = true
		s.live = append(s.live, int(slot.src))
	}
}

// headChanged notes that pe has a new head event: a change now if it is
// ready, or once it becomes ready.
func (s *Stream) headChanged(pe int) {
	if h := s.readyQ[pe][0]; h.readyAt > s.now {
		s.wake.pushItem(item{ev: int32(pe), readyAt: h.readyAt})
	} else if s.report {
		s.chg = append(s.chg, pe)
	}
}

// complete marks ev finished at cycle now, releases its dependents (their
// edges return to the pool), retires the contiguous completed prefix, and
// refills the window.
func (s *Stream) complete(ev int32, now int64) {
	s.completed++
	slot := &s.ring[int64(ev)%int64(s.window)]
	slot.doneAt = now
	if slot.first != noEdge {
		for n := slot.first; n != noEdge; {
			e := s.edgeAt(n)
			d := &s.ring[int64(e.ev)%int64(s.window)]
			d.remaining--
			if d.remaining == 0 {
				s.schedule(e.ev, now+int64(d.delay))
			}
			n = e.next
		}
		s.edgeAt(slot.last).next = s.freeEdge
		s.freeEdge = slot.first
		slot.first, slot.last = noEdge, noEdge
	}
	for s.low < s.head && s.ring[s.low%int64(s.window)].doneAt != notDone {
		s.low++
	}
	s.fill()
}

func (s *Stream) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Err returns the first source or consistency error. A failed Stream reports
// Done to stop the engine promptly; callers must check Err afterwards
// (core.RunTrace does).
func (s *Stream) Err() error { return s.err }

// Tick implements sim.Workload: retire self-addressed events whose compute
// delay has elapsed, and report the heads that became ready.
func (s *Stream) Tick(now int64) {
	s.now = now
	for len(s.selfQ) > 0 && s.selfQ[0].readyAt <= now {
		it := s.selfQ.popItem()
		s.complete(it.ev, now)
	}
	for len(s.wake) > 0 && s.wake[0].readyAt <= now {
		pe := int(s.wake.popItem().ev)
		if s.report {
			s.chg = append(s.chg, pe)
		}
	}
}

// Pending implements sim.Workload.
func (s *Stream) Pending(pe int, now int64) (noc.Packet, bool) {
	q := s.readyQ[pe]
	if len(q) == 0 || q[0].readyAt > now {
		return noc.Packet{}, false
	}
	ev := q[0].ev
	slot := &s.ring[int64(ev)%int64(s.window)]
	return noc.Packet{
		ID:    int64(ev),
		Src:   noc.PECoord(int(slot.src), s.width),
		Dst:   noc.PECoord(int(slot.dst), s.width),
		Gen:   q[0].readyAt,
		Event: ev,
	}, true
}

// Injected implements sim.Workload.
func (s *Stream) Injected(pe int, _ int64) {
	s.readyQ[pe].popItem()
	if len(s.readyQ[pe]) > 0 {
		s.headChanged(pe)
	}
}

// Changed implements sim.ChangeReporter; the first call reports every PE
// with a queued event.
func (s *Stream) Changed(buf []int) []int {
	if !s.report {
		s.report = true
		return s.ActivePEs(buf)
	}
	buf = append(buf, s.chg...)
	s.chg = s.chg[:0]
	return buf
}

// Delivered implements sim.Workload: a delivered packet completes its event
// and may release dependents.
func (s *Stream) Delivered(p noc.Packet, now int64) {
	s.complete(p.Event, now)
}

// ActivePEs implements sim.ActiveSet: the PEs with queued events. PEs
// whose head event is not ready yet are included (a permitted superset);
// drained PEs are dropped during the walk.
func (s *Stream) ActivePEs(buf []int) []int {
	kept := s.live[:0]
	for _, pe := range s.live {
		if len(s.readyQ[pe]) == 0 {
			s.inLive[pe] = false
			continue
		}
		kept = append(kept, pe)
		buf = append(buf, pe)
	}
	s.live = kept
	return buf
}

// Done implements sim.Workload.
func (s *Stream) Done() bool {
	return s.err != nil || s.completed == s.hdr.Events
}

// Completed returns the number of finished events.
func (s *Stream) Completed() int { return int(s.completed) }
