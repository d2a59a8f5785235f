// Package faults injects deterministic, seeded faults into any noc.Network
// through a wrapper, so Hoplite, FastTrack, and multi-channel Hoplite are
// all hardened (and tested) by the same code. The fault model covers the
// transient upsets an FPGA soft NoC is exposed to in practice:
//
//   - transient link faults that destroy a packet in flight (drop) or
//     corrupt its destination address (misroute — the packet exits at the
//     wrong node, which discards it);
//   - stuck-at injection links that refuse a PE's offers over a window;
//   - router freezes that refuse injection at a node and hold deliveries
//     destined to it until the freeze lifts.
//
// Every fault decision is a pure function of (Config.Seed, packet ID) or an
// explicit window, so a schedule replays bit-for-bit across runs — the
// property regression tests rely on (compare Events of two runs).
//
// The wrapper implements sim.FaultyNetwork structurally: the engine reads
// FaultCounts to keep packet-conservation auditing honest under injected
// loss and DrainLost to stop tracking destroyed packets. Pair it with
// reliability.Wrap to recover dropped traffic end to end.
package faults

import (
	"fmt"

	"fasttrack/internal/noc"
	"fasttrack/internal/stats"
	"fasttrack/internal/telemetry"
	"fasttrack/internal/xrand"
)

// Kind labels one fault event.
type Kind uint8

// Fault kinds.
const (
	// KindDrop destroyed a packet in flight after the network accepted it.
	KindDrop Kind = iota
	// KindMisroute corrupted a packet's destination address at injection.
	KindMisroute
	// KindMisdeliver is the exit half of a misroute: the packet reached the
	// wrong node and was discarded there.
	KindMisdeliver
	// KindStuck refused an injection on a stuck-at link.
	KindStuck
	// KindFreeze refused an injection at (or held a delivery for) a frozen
	// router.
	KindFreeze
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindDrop:
		return "drop"
	case KindMisroute:
		return "misroute"
	case KindMisdeliver:
		return "misdeliver"
	case KindStuck:
		return "stuck"
	case KindFreeze:
		return "freeze"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Window is a per-PE fault interval: active for cycles in [From, Until).
// Until <= From means the fault never clears.
type Window struct {
	PE          int
	From, Until int64
}

func (w Window) active(now int64) bool {
	return now >= w.From && (w.Until <= w.From || now < w.Until)
}

func activeAt(ws []Window, pe int, now int64) bool {
	for _, w := range ws {
		if w.PE == pe && w.active(now) {
			return true
		}
	}
	return false
}

// Config is a deterministic fault schedule.
type Config struct {
	// Seed fixes the per-packet fault coin flips; the schedule is a pure
	// function of (Seed, packet ID), so it replays identically.
	Seed uint64
	// DropRate is the probability an injected packet is destroyed in flight.
	DropRate float64
	// MisrouteRate is the probability an injected packet's destination
	// address is corrupted; the packet then exits at the wrong node and is
	// discarded (counted as misdelivered and lost).
	MisrouteRate float64
	// Stuck lists stuck-at injection links: offers at Window.PE are refused
	// while the window is active.
	Stuck []Window
	// Freeze lists frozen routers: injection at Window.PE is refused and
	// deliveries destined to it are held until the window closes.
	Freeze []Window
}

func (c Config) validate() error {
	if c.DropRate < 0 || c.DropRate > 1 {
		return fmt.Errorf("faults: DropRate %v out of [0, 1]", c.DropRate)
	}
	if c.MisrouteRate < 0 || c.MisrouteRate > 1 {
		return fmt.Errorf("faults: MisrouteRate %v out of [0, 1]", c.MisrouteRate)
	}
	if c.DropRate+c.MisrouteRate > 1 {
		return fmt.Errorf("faults: DropRate+MisrouteRate = %v exceeds 1", c.DropRate+c.MisrouteRate)
	}
	for _, w := range append(append([]Window(nil), c.Stuck...), c.Freeze...) {
		if w.PE < 0 {
			return fmt.Errorf("faults: window PE %d negative", w.PE)
		}
	}
	return nil
}

// Event is one fault that fired, for logging and replay verification.
type Event struct {
	Cycle  int64
	Kind   Kind
	PE     int
	Packet int64
}

// fate is the transient-fault verdict for one packet.
type fate uint8

const (
	fateNone fate = iota
	fateDrop
	fateMisroute
)

// Network wraps an inner noc.Network with fault injection. Create with Wrap.
type Network struct {
	inner noc.Network
	cfg   Config
	w     int

	offers      []slot
	forwarded   []bool
	dropped     []bool
	accepted    []bool
	acceptedPEs []int
	delivered   []noc.Packet
	held        []noc.Packet

	// misrouted maps a corrupted packet's ID to its original destination
	// while it is in flight.
	misrouted map[int64]noc.Coord

	counts stats.FaultCounts
	lost   []int64
	events []Event

	// obs, when non-nil, receives OnDrop for packets the fault layer
	// destroys (link drops and wrong-node discards after a misroute).
	obs telemetry.Observer
}

// slot is a PE's offer register; held keeps it across a refusal.
type slot struct {
	p        noc.Packet
	ok, held bool
}

// Wrap decorates inner with the fault schedule cfg.
func Wrap(inner noc.Network, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := inner.NumPEs()
	for _, w := range append(append([]Window(nil), cfg.Stuck...), cfg.Freeze...) {
		if w.PE >= n {
			return nil, fmt.Errorf("faults: window PE %d outside network (%d PEs)", w.PE, n)
		}
	}
	return &Network{
		inner: inner, cfg: cfg, w: inner.Width(),
		offers:    make([]slot, n),
		forwarded: make([]bool, n),
		dropped:   make([]bool, n),
		accepted:  make([]bool, n),
		misrouted: make(map[int64]noc.Coord),
	}, nil
}

// SetObserver attaches a telemetry observer to this wrapper and forwards it
// to the inner network, so router-level events and fault-layer drops reach
// the same observer.
func (nw *Network) SetObserver(o telemetry.Observer) {
	nw.obs = o
	if ob, ok := nw.inner.(telemetry.Observable); ok {
		ob.SetObserver(o)
	}
}

// Width returns the torus width in routers.
func (nw *Network) Width() int { return nw.inner.Width() }

// Height returns the torus height in routers.
func (nw *Network) Height() int { return nw.inner.Height() }

// NumPEs returns the client count.
func (nw *Network) NumPEs() int { return nw.inner.NumPEs() }

// Counters exposes the inner network's event counters.
func (nw *Network) Counters() *noc.Counters { return nw.inner.Counters() }

// InFlight counts packets inside the inner network plus deliveries held
// behind frozen routers.
func (nw *Network) InFlight() int { return nw.inner.InFlight() + len(nw.held) }

// Offer presents p for injection at PE pe this cycle.
func (nw *Network) Offer(pe int, p noc.Packet) { nw.offers[pe] = slot{p: p, ok: true} }

// Hold presents p as a standing offer at PE pe (noc.Standing): its slot stays
// set across refusals and is forwarded to the inner network every Step, so
// it meets the same per-cycle faults a re-offered packet would.
func (nw *Network) Hold(pe int, p noc.Packet) { nw.offers[pe] = slot{p: p, ok: true, held: true} }

// Retract withdraws pe's offer.
func (nw *Network) Retract(pe int) { nw.offers[pe].ok = false }

// Accepted reports whether the offer at pe was injected in the last Step.
// Packets consumed by a drop fault count as accepted: the link took them.
func (nw *Network) Accepted(pe int) bool { return nw.accepted[pe] }

// AcceptedPEs lists the PEs accepted in the last Step in ascending order; the
// slice is reused.
func (nw *Network) AcceptedPEs() []int { return nw.acceptedPEs }

// Delivered returns packets delivered in the last Step; the slice is reused.
func (nw *Network) Delivered() []noc.Packet { return nw.delivered }

// FaultCounts returns the cumulative fault tallies.
func (nw *Network) FaultCounts() stats.FaultCounts { return nw.counts }

// DrainLost returns the IDs of packets destroyed by faults since the last
// call (the engine evicts them from in-flight tracking).
func (nw *Network) DrainLost() []int64 {
	l := nw.lost
	nw.lost = nil
	return l
}

// Events returns the log of every fault that fired, in firing order.
func (nw *Network) Events() []Event { return nw.events }

// fateFor is the deterministic transient-fault verdict for a packet: a pure
// function of (seed, packet ID), independent of offer timing, so stalled
// offers retried across cycles always meet the same fate.
func (nw *Network) fateFor(id int64) (fate, *xrand.Rand) {
	if nw.cfg.DropRate == 0 && nw.cfg.MisrouteRate == 0 {
		return fateNone, nil
	}
	r := xrand.New(nw.cfg.Seed).SplitBy(uint64(id))
	u := r.Float64()
	switch {
	case u < nw.cfg.DropRate:
		return fateDrop, r
	case u < nw.cfg.DropRate+nw.cfg.MisrouteRate:
		return fateMisroute, r
	}
	return fateNone, r
}

// corruptDst picks a wrong destination deterministically from r.
func (nw *Network) corruptDst(orig noc.Coord, r *xrand.Rand) noc.Coord {
	n := nw.inner.NumPEs()
	want := noc.PEIndex(orig, nw.w)
	for {
		if cand := r.Intn(n); cand != want {
			return noc.PECoord(cand, nw.w)
		}
	}
}

func (nw *Network) log(now int64, k Kind, pe int, pkt int64) {
	nw.events = append(nw.events, Event{Cycle: now, Kind: k, PE: pe, Packet: pkt})
}

// Step applies injection-side faults, advances the inner network, then
// applies delivery-side faults (misdelivery discard, freeze holds).
func (nw *Network) Step(now int64) {
	for pe := range nw.offers {
		nw.forwarded[pe] = false
		nw.dropped[pe] = false
		o := nw.offers[pe]
		if !o.ok {
			continue
		}
		if stuck, frozen := activeAt(nw.cfg.Stuck, pe, now), activeAt(nw.cfg.Freeze, pe, now); stuck || frozen {
			k := KindStuck
			if frozen {
				k = KindFreeze
			}
			nw.counts.InjectBlocked++
			nw.inner.Counters().InjectionStalls++
			nw.log(now, k, pe, o.p.ID)
			continue
		}
		switch f, r := nw.fateFor(o.p.ID); f {
		case fateDrop:
			// The link accepts the packet and destroys it; nothing reaches
			// the inner network.
			nw.dropped[pe] = true
			nw.counts.Dropped++
			nw.lost = append(nw.lost, o.p.ID)
			nw.log(now, KindDrop, pe, o.p.ID)
			if nw.obs != nil {
				nw.obs.OnDrop(now, &o.p)
			}
		case fateMisroute:
			bad := o.p
			bad.Dst = nw.corruptDst(o.p.Dst, r)
			nw.misrouted[o.p.ID] = o.p.Dst
			nw.inner.Offer(pe, bad)
			nw.forwarded[pe] = true
		default:
			nw.inner.Offer(pe, o.p)
			nw.forwarded[pe] = true
		}
	}

	nw.inner.Step(now)

	nw.acceptedPEs = nw.acceptedPEs[:0]
	for pe := range nw.accepted {
		switch {
		case nw.dropped[pe]:
			nw.accepted[pe] = true
		case nw.forwarded[pe]:
			nw.accepted[pe] = nw.inner.Accepted(pe)
			if !nw.accepted[pe] {
				// A misrouted offer that stalled never entered the network;
				// forget the corruption so the retry re-rolls the same fate.
				delete(nw.misrouted, nw.offers[pe].p.ID)
			} else if _, mis := nw.misrouted[nw.offers[pe].p.ID]; mis {
				nw.counts.Misrouted++
				nw.log(now, KindMisroute, pe, nw.offers[pe].p.ID)
			}
		default:
			nw.accepted[pe] = false
		}
		if nw.accepted[pe] {
			nw.acceptedPEs = append(nw.acceptedPEs, pe)
			nw.offers[pe].ok = false
		} else if !nw.offers[pe].held {
			nw.offers[pe].ok = false
		}
	}

	nw.delivered = nw.delivered[:0]
	// Release deliveries held behind routers whose freeze has lifted.
	keep := nw.held[:0]
	for _, p := range nw.held {
		if activeAt(nw.cfg.Freeze, noc.PEIndex(p.Dst, nw.w), now) {
			keep = append(keep, p)
		} else {
			nw.delivered = append(nw.delivered, p)
		}
	}
	nw.held = keep
	for _, p := range nw.inner.Delivered() {
		if _, mis := nw.misrouted[p.ID]; mis {
			// Wrong-node exit: the client discards a packet not addressed
			// to it. The packet is lost end to end.
			delete(nw.misrouted, p.ID)
			nw.counts.Misdelivered++
			nw.lost = append(nw.lost, p.ID)
			nw.log(now, KindMisdeliver, noc.PEIndex(p.Dst, nw.w), p.ID)
			if nw.obs != nil {
				nw.obs.OnDrop(now, &p)
			}
			continue
		}
		if pe := noc.PEIndex(p.Dst, nw.w); activeAt(nw.cfg.Freeze, pe, now) {
			nw.counts.HeldDeliveries++
			nw.held = append(nw.held, p)
			continue
		}
		nw.delivered = append(nw.delivered, p)
	}
}
