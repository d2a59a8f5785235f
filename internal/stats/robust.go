package stats

import "fmt"

// FaultCounts tallies injected faults. It is the vocabulary shared by the
// fault injector (internal/faults), the simulation engine (internal/sim,
// which uses Lost to keep packet-conservation auditing honest under
// injected loss), and the reporting tools (cmd/ftsim).
type FaultCounts struct {
	// Dropped counts packets destroyed in flight by transient link faults:
	// the network accepted them and they never exit.
	Dropped int64
	// Misrouted counts packets whose destination address bits were corrupted
	// at injection time by a transient fault.
	Misrouted int64
	// Misdelivered counts misrouted packets that exited at the wrong node
	// and were discarded there (the receiving client rejects a packet not
	// addressed to it).
	Misdelivered int64
	// InjectBlocked counts injection attempts refused by a stuck-at link or
	// a frozen router.
	InjectBlocked int64
	// HeldDeliveries counts deliveries delayed because the destination
	// router was frozen when the packet arrived.
	HeldDeliveries int64
}

// Lost returns the packets permanently removed from the network by faults:
// outright drops plus misdeliveries discarded at the wrong node. The
// conservation invariant under faults is
//
//	injected == delivered + Lost() + in-flight.
func (f FaultCounts) Lost() int64 { return f.Dropped + f.Misdelivered }

// Total returns the number of fault events that fired.
func (f FaultCounts) Total() int64 { return f.Dropped + f.Misrouted + f.InjectBlocked }

// RecoveryCounts summarizes the resilient-delivery layer
// (internal/reliability): end-to-end retransmission on delivery timeout.
type RecoveryCounts struct {
	// Sent counts distinct application packets handed to the network.
	Sent int64
	// Completed counts application packets eventually delivered (on any
	// attempt, including late arrivals after the retry budget expired).
	Completed int64
	// Retries counts retransmissions issued.
	Retries int64
	// Recovered counts packets that completed only after at least one
	// retransmission — deliveries a fault would otherwise have lost.
	Recovered int64
	// Duplicates counts redundant wire-level deliveries suppressed before
	// they reached the application (an original and its retransmit both
	// arrived).
	Duplicates int64
	// Abandoned counts packets given up on after the retry budget.
	Abandoned int64
}

// Percent formats part/whole as "NN.N%", guarding against an empty whole.
func Percent(part, whole int64) string {
	if whole == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}
