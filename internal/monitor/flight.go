package monitor

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
)

// Hop is one recorded event in a packet's flight.
type Hop struct {
	Cycle  int64
	Router int32
	Port   noc.Port
	Kind   telemetry.HopKind
}

// Record is one packet's recorded lifecycle. While the packet is in flight
// Deliver is -1 and Latency tracks its age at observation time; after
// delivery (or drop) both are final.
type Record struct {
	ID       int64
	Src, Dst noc.Coord
	Gen      int64
	// Inject is the cycle the packet entered the network (-1 until known:
	// hop events can precede the engine's injection report within a cycle).
	Inject  int64
	Deliver int64
	Dropped bool
	// Latency is Deliver-Gen for finished packets; reports refresh it to the
	// current age for live ones.
	Latency     int64
	Deflections int32
	Denied      int32
	// Hops is the flight history, capped at maxHopsPerPacket entries;
	// TruncatedHops counts events beyond the cap.
	Hops          []Hop
	TruncatedHops int32
}

// maxHopsPerPacket bounds per-packet history so a livelocked packet cannot
// grow a record without bound; the truncation count preserves the total.
const maxHopsPerPacket = 64

// FlightRecorder is a telemetry.Observer that retains bounded per-packet
// flight histories for forensics: every in-flight packet's lifecycle, plus
// a bounded buffer of the worst (highest-latency) finished packets. On a
// watchdog or invariant trip — or on demand via /debug/flight — its report
// names the K worst packets with full hop history and aggregates a
// deflection-blame table over the routers that delayed them.
//
// All methods are safe for concurrent use: events arrive from the
// simulation goroutine while reports are rendered from HTTP handlers.
type FlightRecorder struct {
	// Base ignores stalls and retransmits: a retransmit copy carries a fresh
	// ID and records its own lifecycle from injection.
	telemetry.Base

	mu  sync.Mutex
	cap int
	w   int

	live map[int64]*Record
	// worst is a min-heap on Latency of finished packets, capacity cap.
	worst []*Record

	lastCycle int64
	finished  int64
	evicted   int64
}

// NewFlightRecorder returns a recorder retaining the cap worst finished
// packets (values < 1 are raised to 1) on a width-w torus.
func NewFlightRecorder(cap, w int) *FlightRecorder {
	if cap < 1 {
		cap = 1
	}
	if w < 1 {
		w = 1
	}
	return &FlightRecorder{
		cap:  cap,
		w:    w,
		live: make(map[int64]*Record),
	}
}

// get returns the live record for p, creating it on first sight: hop events
// fire inside Step while the engine reports the accepted injection after
// Step, so the first event seen for a packet may be its first hop.
func (f *FlightRecorder) get(p *noc.Packet) *Record {
	r, ok := f.live[p.ID]
	if !ok {
		r = &Record{
			ID: p.ID, Src: p.Src, Dst: p.Dst, Gen: p.Gen,
			Inject: -1, Deliver: -1,
		}
		f.live[p.ID] = r
	}
	return r
}

// OnHop implements telemetry.Observer.
func (f *FlightRecorder) OnHop(now int64, router int, port noc.Port, kind telemetry.HopKind, p *noc.Packet) {
	f.mu.Lock()
	r := f.get(p)
	if len(r.Hops) < maxHopsPerPacket {
		r.Hops = append(r.Hops, Hop{Cycle: now, Router: int32(router), Port: port, Kind: kind})
	} else {
		r.TruncatedHops++
	}
	switch kind {
	case telemetry.HopDeflect:
		r.Deflections++
	case telemetry.HopDenied:
		r.Denied++
	}
	f.mu.Unlock()
}

// OnInject implements telemetry.Observer.
func (f *FlightRecorder) OnInject(now int64, p *noc.Packet) {
	f.mu.Lock()
	f.get(p).Inject = now
	f.mu.Unlock()
}

// OnDeliver implements telemetry.Observer.
func (f *FlightRecorder) OnDeliver(now int64, p *noc.Packet) { f.finish(now, p, false) }

// OnDrop implements telemetry.Observer: dropped packets are forensically
// interesting and compete for worst-buffer slots like delivered ones.
func (f *FlightRecorder) OnDrop(now int64, p *noc.Packet) { f.finish(now, p, true) }

// OnCycleEnd implements telemetry.Observer.
func (f *FlightRecorder) OnCycleEnd(now int64, inFlight int) {
	f.mu.Lock()
	f.lastCycle = now
	f.mu.Unlock()
}

func (f *FlightRecorder) finish(now int64, p *noc.Packet, dropped bool) {
	f.mu.Lock()
	r := f.get(p)
	delete(f.live, p.ID)
	r.Deliver = now
	r.Dropped = dropped
	r.Latency = now - r.Gen
	f.finished++
	// Min-heap sift on Latency: keep the cap worst finished packets.
	if len(f.worst) < f.cap {
		f.worst = append(f.worst, r)
		f.siftUp(len(f.worst) - 1)
	} else if r.Latency > f.worst[0].Latency {
		f.worst[0] = r
		f.siftDown(0)
		f.evicted++
	} else {
		f.evicted++
	}
	f.mu.Unlock()
}

func (f *FlightRecorder) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if f.worst[parent].Latency <= f.worst[i].Latency {
			return
		}
		f.worst[parent], f.worst[i] = f.worst[i], f.worst[parent]
		i = parent
	}
}

func (f *FlightRecorder) siftDown(i int) {
	n := len(f.worst)
	for {
		least := i
		if l := 2*i + 1; l < n && f.worst[l].Latency < f.worst[least].Latency {
			least = l
		}
		if r := 2*i + 2; r < n && f.worst[r].Latency < f.worst[least].Latency {
			least = r
		}
		if least == i {
			return
		}
		f.worst[i], f.worst[least] = f.worst[least], f.worst[i]
		i = least
	}
}

// TelemetryKey implements telemetry.Keyer.
func (f *FlightRecorder) TelemetryKey() string { return fmt.Sprintf("flight(cap=%d)", f.cap) }

// BlameEntry aggregates deflections and express denials charged to one
// router across a report's worst packets.
type BlameEntry struct {
	Router   int
	X, Y     int
	Deflects int64
	Denied   int64
}

// Report is a forensic summary: the worst packets (live packets ranked by
// age, finished ones by latency) and the routers to blame for their delay.
type Report struct {
	// Cycle is the last observed simulation cycle.
	Cycle int64
	// Finished and Live count packets recorded overall; Evicted counts
	// finished packets that fell out of the bounded worst buffer.
	Finished, Live, Evicted int64
	// Worst holds deep copies of the K worst records, worst first.
	Worst []Record
	// Blame ranks routers by deflections+denials charged over Worst.
	Blame []BlameEntry
}

// Report builds a forensic report over the k worst packets.
func (f *FlightRecorder) Report(k int) Report {
	if k < 1 {
		k = 1
	}
	f.mu.Lock()
	rep := Report{
		Cycle:    f.lastCycle,
		Finished: f.finished,
		Live:     int64(len(f.live)),
		Evicted:  f.evicted,
	}
	all := make([]Record, 0, len(f.live)+len(f.worst))
	for _, r := range f.live {
		c := cloneRecord(r)
		c.Latency = f.lastCycle - c.Gen // age so far
		all = append(all, c)
	}
	for _, r := range f.worst {
		all = append(all, cloneRecord(r))
	}
	f.mu.Unlock()

	sort.Slice(all, func(i, j int) bool {
		if all[i].Latency != all[j].Latency {
			return all[i].Latency > all[j].Latency
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	rep.Worst = all

	blame := make(map[int32]*BlameEntry)
	for _, r := range all {
		for _, h := range r.Hops {
			if h.Kind != telemetry.HopDeflect && h.Kind != telemetry.HopDenied {
				continue
			}
			b, ok := blame[h.Router]
			if !ok {
				b = &BlameEntry{
					Router: int(h.Router),
					X:      int(h.Router) % f.w,
					Y:      int(h.Router) / f.w,
				}
				blame[h.Router] = b
			}
			if h.Kind == telemetry.HopDeflect {
				b.Deflects++
			} else {
				b.Denied++
			}
		}
	}
	for _, b := range blame {
		rep.Blame = append(rep.Blame, *b)
	}
	sort.Slice(rep.Blame, func(i, j int) bool {
		ti := rep.Blame[i].Deflects + rep.Blame[i].Denied
		tj := rep.Blame[j].Deflects + rep.Blame[j].Denied
		if ti != tj {
			return ti > tj
		}
		return rep.Blame[i].Router < rep.Blame[j].Router
	})
	return rep
}

func cloneRecord(r *Record) Record {
	c := *r
	c.Hops = append([]Hop(nil), r.Hops...)
	return c
}

// WriteReport renders the k-worst forensic report as text.
func (f *FlightRecorder) WriteReport(w io.Writer, k int) error {
	return f.Report(k).Write(w, f.w)
}

// Write renders the report; width maps router indices to coordinates.
func (r Report) Write(w io.Writer, width int) error {
	if width < 1 {
		width = 1
	}
	coord := func(router int32) noc.Coord {
		return noc.PECoord(int(router), width)
	}
	if _, err := fmt.Fprintf(w,
		"flight recorder @ cycle %d: %d finished, %d in flight (retained %d worst, %d evicted)\n",
		r.Cycle, r.Finished, r.Live, len(r.Worst), r.Evicted); err != nil {
		return err
	}
	for i, p := range r.Worst {
		state := fmt.Sprintf("delivered @%d", p.Deliver)
		if p.Dropped {
			state = fmt.Sprintf("DROPPED @%d", p.Deliver)
		} else if p.Deliver < 0 {
			state = "IN FLIGHT"
		}
		fmt.Fprintf(w, "#%d packet %d %s->%s latency %d (%s; gen %d, inject %d, %d deflections, %d express denials)\n",
			i+1, p.ID, p.Src, p.Dst, p.Latency, state, p.Gen, p.Inject, p.Deflections, p.Denied)
		if len(p.Hops) > 0 {
			fmt.Fprint(w, "   flight:")
			for _, h := range p.Hops {
				fmt.Fprintf(w, " @%d %s %s %s;", h.Cycle, coord(h.Router), h.Port, h.Kind)
			}
			if p.TruncatedHops > 0 {
				fmt.Fprintf(w, " … %d more events truncated", p.TruncatedHops)
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.Blame) > 0 {
		fmt.Fprintln(w, "deflection blame (routers delaying these packets):")
		top := r.Blame
		if len(top) > 10 {
			top = top[:10]
		}
		for _, b := range top {
			if _, err := fmt.Fprintf(w, "  router (%d,%d): %d deflections, %d express denials\n",
				b.X, b.Y, b.Deflects, b.Denied); err != nil {
				return err
			}
		}
	}
	return nil
}
