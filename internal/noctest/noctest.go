// Package noctest holds the fabric suite shared by the network packages'
// tests. Its harness drives instances of one network through an identical
// precomputed offer schedule, presented in different styles, and asserts that
// the delivered packet stream, event counters, telemetry event log, and
// residual in-flight population are bit-identical.
package noctest

import (
	"reflect"
	"testing"

	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
	"fasttrack/internal/xrand"
)

// Fabric is what the harness needs from a network under test: the network
// protocol, the kernel's standing-offer port, and the observer attachment
// point.
type Fabric interface {
	noc.Network
	Hold(pe int, p noc.Packet)
	telemetry.Observable
}

// Event is one recorded router-level telemetry event.
type Event struct {
	Kind   string
	Now    int64
	Router int
	Port   noc.Port
	P      noc.Packet
}

// Recorder captures the four router-level events for order comparison.
type Recorder struct {
	telemetry.Base
	Events []Event
}

func (r *Recorder) add(kind string, now int64, router int, port noc.Port, p *noc.Packet) {
	r.Events = append(r.Events, Event{Kind: kind, Now: now, Router: router, Port: port, P: *p})
}

// OnHop implements telemetry.Observer.
func (r *Recorder) OnHop(now int64, router int, out noc.Port, p *noc.Packet) {
	r.add("hop", now, router, out, p)
}

// OnExpressHop implements telemetry.Observer.
func (r *Recorder) OnExpressHop(now int64, router int, out noc.Port, p *noc.Packet) {
	r.add("exhop", now, router, out, p)
}

// OnDeflect implements telemetry.Observer.
func (r *Recorder) OnDeflect(now int64, router int, in noc.Port, p *noc.Packet) {
	r.add("deflect", now, router, in, p)
}

// OnExpressDenied implements telemetry.Observer.
func (r *Recorder) OnExpressDenied(now int64, router int, in noc.Port, p *noc.Packet) {
	r.add("denied", now, router, in, p)
}

// schedule is a precomputed offer plan: per-PE destination queues plus a
// per-(cycle,PE) offer gate. An open gate starts the head of the PE's queue,
// which stays outstanding until the network accepts it.
type schedule struct {
	cycles int
	queues [][]noc.Coord
	gates  []bool
}

func newSchedule(w, h int, seed uint64, cycles int, rate float64) schedule {
	n := w * h
	rng := xrand.New(seed)
	const perPE = 24
	queues := make([][]noc.Coord, n)
	for pe := 0; pe < n; pe++ {
		src := noc.PECoord(pe, w)
		for len(queues[pe]) < perPE {
			if dst := (noc.Coord{X: rng.Intn(w), Y: rng.Intn(h)}); dst != src {
				queues[pe] = append(queues[pe], dst)
			}
		}
	}
	gates := make([]bool, cycles*n)
	for i := range gates {
		gates[i] = rng.Bool(rate)
	}
	return schedule{cycles: cycles, queues: queues, gates: gates}
}

// accept is one (cycle, PE) at which the network took an offer.
type accept struct {
	now int64
	pe  int
}

type runResult struct {
	accepts   []accept
	delivered []noc.Packet
	counters  noc.Counters
	events    []Event
	inFlight  int
}

// replay runs sc through nw — offered-traffic window, then a drain with no
// new offers — and returns everything an equivalent run must reproduce. With
// hold each packet is presented once as a standing offer; otherwise it is
// re-Offered every cycle until accepted.
func replay(t *testing.T, nw Fabric, sc schedule, hold bool) runResult {
	t.Helper()
	rec := &Recorder{}
	nw.SetObserver(rec)

	w, n := nw.Width(), nw.NumPEs()
	qpos := make([]int, n)
	// standing marks PEs whose offer is still outstanding, head holds the
	// packet; both outlive the offered window until accepted.
	standing := make([]bool, n)
	head := make([]noc.Packet, n)
	outstanding := 0
	var accepts []accept
	var delivered []noc.Packet
	var offered []int
	maxCycles := sc.cycles + 20*n // offered window + generous drain
	for c := 0; c < maxCycles; c++ {
		now := int64(c)
		offered = offered[:0]
		for pe := 0; pe < n; pe++ {
			switch {
			case standing[pe]:
				if !hold {
					nw.Offer(pe, head[pe])
				}
			case c < sc.cycles && qpos[pe] < len(sc.queues[pe]) && sc.gates[c*n+pe]:
				head[pe] = noc.Packet{
					ID:  int64(pe)<<32 | int64(qpos[pe]),
					Src: noc.PECoord(pe, w),
					Dst: sc.queues[pe][qpos[pe]],
					Gen: now,
				}
				if hold {
					nw.Hold(pe, head[pe])
				} else {
					nw.Offer(pe, head[pe])
				}
				standing[pe] = true
				outstanding++
			default:
				continue
			}
			offered = append(offered, pe)
		}
		nw.Step(now)
		for _, pe := range offered {
			if nw.Accepted(pe) {
				qpos[pe]++
				standing[pe] = false
				outstanding--
				accepts = append(accepts, accept{now, pe})
			}
		}
		delivered = append(delivered, nw.Delivered()...)
		if c >= sc.cycles && nw.InFlight() == 0 && outstanding == 0 {
			break
		}
	}
	return runResult{
		accepts:   accepts,
		delivered: delivered,
		counters:  *nw.Counters(),
		events:    rec.Events,
		inFlight:  nw.InFlight(),
	}
}

// requireEqual fails unless got reproduces want exactly.
func requireEqual(t *testing.T, what string, want, got runResult) {
	t.Helper()
	if got.inFlight != 0 {
		t.Fatalf("%s: did not drain, %d in flight", what, got.inFlight)
	}
	if !reflect.DeepEqual(want.accepts, got.accepts) {
		t.Fatalf("%s: accept cycles diverged (%d vs %d accepts)", what, len(want.accepts), len(got.accepts))
	}
	if !reflect.DeepEqual(want.delivered, got.delivered) {
		t.Fatalf("%s: delivered stream diverged (%d vs %d packets)", what, len(want.delivered), len(got.delivered))
	}
	if want.counters != got.counters {
		t.Fatalf("%s: counters diverged\nwant: %+v\ngot:  %+v", what, want.counters, got.counters)
	}
	if !reflect.DeepEqual(want.events, got.events) {
		t.Fatalf("%s: telemetry event log diverged (%d vs %d events)", what, len(want.events), len(got.events))
	}
}

// reference is the re-Offer run every other run is compared against.
func reference(t *testing.T, nw Fabric, sc schedule) runResult {
	t.Helper()
	ref := replay(t, nw, sc, false)
	if ref.inFlight != 0 {
		t.Fatalf("reference run did not drain: %d in flight", ref.inFlight)
	}
	if len(ref.delivered) == 0 || len(ref.events) == 0 {
		t.Fatal("reference run delivered or recorded nothing; schedule too sparse")
	}
	return ref
}

// Saturate offers a packet at every PE for the given cycles, stepping
// through Step from cycle from on; destinations are a fixed function of
// (PE, cycle). It returns the next cycle.
func Saturate(nw noc.Network, from int64, cycles int) int64 {
	w, n := nw.Width(), nw.NumPEs()
	for now := from; now < from+int64(cycles); now++ {
		for pe := 0; pe < n; pe++ {
			dst := (pe*7 + int(now)*13 + 1) % n
			if dst == pe {
				dst = (dst + 1) % n
			}
			nw.Offer(pe, noc.Packet{ID: now<<20 | int64(pe), Src: noc.PECoord(pe, w), Dst: noc.PECoord(dst, w), Gen: now})
		}
		nw.Step(now)
	}
	return from + int64(cycles)
}
