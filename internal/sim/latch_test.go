package sim_test

import "fasttrack/internal/noc"

// latch adapts a one-cycle noc.Network (the paper oracle, the deliberately
// broken networks of invariant_test.go) to the noc.Standing port sim.Run
// requires, by re-offering every latched offer to net before each Step.
func latch(net noc.Network) noc.Standing {
	n := net.NumPEs()
	return &latched{Network: net, offers: make([]noc.Packet, n), held: make([]bool, n)}
}

// latched emulates noc.Standing over a one-cycle Network, scanning every PE
// twice per Step.
type latched struct {
	noc.Network
	offers   []noc.Packet
	held     []bool
	accepted []int
}

func (l *latched) Hold(pe int, p noc.Packet) { l.offers[pe], l.held[pe] = p, true }
func (l *latched) Retract(pe int)            { l.held[pe] = false }
func (l *latched) AcceptedPEs() []int        { return l.accepted }

// Offer presents a one-cycle offer, replacing a latched one.
func (l *latched) Offer(pe int, p noc.Packet) {
	l.held[pe] = false
	l.Network.Offer(pe, p)
}

func (l *latched) Step(now int64) {
	for pe, ok := range l.held {
		if ok {
			l.Network.Offer(pe, l.offers[pe])
		}
	}
	l.Network.Step(now)
	l.accepted = l.accepted[:0]
	for pe := range l.held {
		if l.Network.Accepted(pe) {
			l.held[pe] = false
			l.accepted = append(l.accepted, pe)
		}
	}
}
