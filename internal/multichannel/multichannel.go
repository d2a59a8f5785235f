// Package multichannel implements the replicated-Hoplite comparator from the
// paper's iso-resource evaluations (Hoplite-2x, Hoplite-3x in Figs 13/14/19):
// K independent Hoplite channels sharing one client interface per PE.
//
// To keep the comparison fair the client interface is unchanged (§IV-A):
// each PE may inject at most one packet per cycle — into exactly one channel
// — and accepts at most one delivery per cycle. A channel that completes a
// packet while the shared client port is busy must deflect it (bufferless
// channels cannot hold packets), implemented with one exit-busy mask the
// channels share.
// Channel service order rotates every cycle so no channel starves.
package multichannel

import (
	"fmt"

	"fasttrack/internal/hoplite"
	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
)

// Network is K parallel Hoplite planes behind single-ported clients.
type Network struct {
	w, h, k  int
	channels []*hoplite.Network

	// nextChan[pe] is the channel the PE offers to; it rotates when an offer
	// stalls so a congested plane cannot starve the client. A PE's offer
	// always sits on channel nextChan[pe], as a one-cycle channel offer.
	nextChan []int
	mode     []uint8 // the kind of pe's offer: offNone, offOnce, ...
	accepted []bool

	// exitBusy[pe] marks client ports already used this cycle.
	exitBusy  []bool
	delivered []noc.Packet

	// offeredPEs, acceptedPEs, and busyPEs track which entries of the
	// corresponding per-PE arrays are set, so the per-cycle bookkeeping
	// touches only live PEs instead of all N².
	offeredPEs, acceptedPEs, busyPEs []int

	counters noc.Counters
}

// Offer kinds (Network.mode). A PE is on offeredPEs exactly while its mode
// is not offNone.
const (
	offNone uint8 = iota
	offOnce       // Offer: forgotten after the next Step
	offHeld       // Hold: re-presented to the next channel when refused
	offGone       // retracted; dropped from offeredPEs by the next Step
)

// New builds a W×H torus with k independent Hoplite channels (k >= 1).
func New(w, h, k int) (*Network, error) {
	if k < 1 {
		return nil, fmt.Errorf("multichannel: need at least 1 channel, got %d", k)
	}
	n := w * h
	nw := &Network{w: w, h: h, k: k,
		nextChan: make([]int, n),
		mode:     make([]uint8, n),
		accepted: make([]bool, n),
		exitBusy: make([]bool, n),
	}
	for c := 0; c < k; c++ {
		ch, err := hoplite.New(w, h)
		if err != nil {
			return nil, err
		}
		ch.ExitBusy = nw.exitBusy
		nw.channels = append(nw.channels, ch)
	}
	return nw, nil
}

// Width returns the torus width in routers.
func (nw *Network) Width() int { return nw.w }

// Height returns the torus height in routers.
func (nw *Network) Height() int { return nw.h }

// NumPEs returns the client count.
func (nw *Network) NumPEs() int { return nw.w * nw.h }

// Channels returns the channel count K.
func (nw *Network) Channels() int { return nw.k }

// SetObserver attaches a telemetry observer to every channel. All K channels
// share one w×h geometry, so per-link counts aggregate per geometric link
// across channels; the engine (not the channels) emits OnCycleEnd, so a
// K-channel step still counts as one cycle.
func (nw *Network) SetObserver(o telemetry.Observer) {
	for _, ch := range nw.channels {
		ch.SetObserver(o)
	}
}

// Offer presents p for injection at PE pe this cycle. The packet goes to a
// single channel chosen by per-PE rotation.
func (nw *Network) Offer(pe int, p noc.Packet) { nw.present(pe, p, offOnce) }

// Hold presents p as a standing offer at PE pe (noc.Standing): when a channel
// refuses it, Step re-presents it to the next channel itself — the rotation a
// client re-offering every cycle would see.
func (nw *Network) Hold(pe int, p noc.Packet) { nw.present(pe, p, offHeld) }

func (nw *Network) present(pe int, p noc.Packet, mode uint8) {
	nw.channels[nw.nextChan[pe]].Offer(pe, p)
	if nw.mode[pe] == offNone {
		nw.offeredPEs = append(nw.offeredPEs, pe)
	}
	nw.mode[pe] = mode
}

// Retract withdraws pe's offer, if any.
func (nw *Network) Retract(pe int) {
	if nw.mode[pe] != offNone {
		nw.channels[nw.nextChan[pe]].Retract(pe)
		nw.mode[pe] = offGone
	}
}

// Step advances all channels one cycle. Channels are serviced in rotating
// order; once a channel delivers to a client, the port is busy for the
// rest of the cycle and later channels deflect their completions there.
// The rotation follows the cycle number, not a count of Step calls, so an
// idle Step leaves no trace — which the engine's idle fast-forward relies on.
func (nw *Network) Step(now int64) {
	for _, pe := range nw.busyPEs {
		nw.exitBusy[pe] = false
	}
	nw.busyPEs = nw.busyPEs[:0]
	nw.delivered = nw.delivered[:0]
	start := int(now % int64(nw.k))
	for j := 0; j < nw.k; j++ {
		ch := nw.channels[(start+j)%nw.k]
		ch.Step(now)
		for _, p := range ch.Delivered() {
			pe := noc.PEIndex(p.Dst, nw.w)
			if !nw.exitBusy[pe] {
				nw.exitBusy[pe] = true
				nw.busyPEs = append(nw.busyPEs, pe)
			}
			nw.delivered = append(nw.delivered, p)
		}
	}

	// Record offer outcomes and rotate stalled clients to the next channel,
	// carrying a standing offer along.
	for _, pe := range nw.acceptedPEs {
		nw.accepted[pe] = false
	}
	nw.acceptedPEs = nw.acceptedPEs[:0]
	kept := nw.offeredPEs[:0]
	for _, pe := range nw.offeredPEs {
		c := nw.nextChan[pe]
		switch {
		case nw.mode[pe] == offGone:
		case nw.channels[c].Accepted(pe):
			nw.accepted[pe] = true
			nw.acceptedPEs = append(nw.acceptedPEs, pe)
		default:
			next := (c + 1) % nw.k
			nw.nextChan[pe] = next
			if nw.mode[pe] == offHeld {
				nw.channels[next].Offer(pe, nw.channels[c].Offers[pe].P)
				kept = append(kept, pe)
				continue
			}
		}
		nw.mode[pe] = offNone
	}
	nw.offeredPEs = kept
}

// Accepted reports whether the offer at pe was injected in the last Step.
func (nw *Network) Accepted(pe int) bool { return nw.accepted[pe] }

// AcceptedPEs lists the PEs accepted in the last Step; the slice is reused.
func (nw *Network) AcceptedPEs() []int { return nw.acceptedPEs }

// Delivered returns packets handed to clients in the last Step; the slice
// is reused between cycles.
func (nw *Network) Delivered() []noc.Packet { return nw.delivered }

// InFlight counts packets in any channel.
func (nw *Network) InFlight() int {
	t := 0
	for _, ch := range nw.channels {
		t += ch.InFlight()
	}
	return t
}

// Counters returns aggregated event counters across all channels.
func (nw *Network) Counters() *noc.Counters {
	nw.counters = noc.Counters{}
	for _, ch := range nw.channels {
		nw.counters.Add(ch.Counters())
	}
	return &nw.counters
}
