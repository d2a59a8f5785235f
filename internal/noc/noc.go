// Package noc defines the vocabulary shared by every network implementation
// in this repository: coordinates on the 2-D unidirectional torus, packets,
// router port identities, per-port event counters, and the Network interface
// that the simulation engine drives.
//
// All networks in this repo (Hoplite, FastTrack, multi-channel Hoplite) are
// bufferless and deflection-routed: a router must assign every in-flight
// input packet to some output port every cycle. The engine enforces packet
// conservation; a network that loses a packet is a bug, not a statistic.
package noc

import "fmt"

// Coord is a router/PE position on the N×M torus. X grows eastward and Y
// grows southward; both rings are unidirectional (east and south only),
// matching Hoplite's torus.
type Coord struct {
	X, Y int
}

// String renders the coordinate like the paper's figures, e.g. "(3,0)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// RingDelta returns the forward (east/south) distance from a to b on a
// unidirectional ring of n nodes.
func RingDelta(a, b, n int) int {
	d := (b - a) % n
	if d < 0 {
		d += n
	}
	return d
}

// Packet is the unit of transfer. Hoplite-family NoCs move one whole packet
// per link per cycle (wide datapath, no flits), so a packet is also a flit.
//
// The bookkeeping fields (Gen, Inject, hop and deflection counts) exist for
// measurement only; a hardware packet carries just Dst plus payload.
type Packet struct {
	ID  int64
	Src Coord
	Dst Coord

	// Gen is the cycle the packet was created at its source PE; source
	// queueing time counts toward latency, as in the paper's latency plots.
	Gen int64
	// Inject is the cycle the packet entered the network.
	Inject int64

	// ShortHops and ExpressHops count link traversals by link class.
	ShortHops   int32
	ExpressHops int32
	// Deflections counts the times the packet was denied its preferred
	// output and misrouted.
	Deflections int32

	// Event links the packet back to an application-trace event, or -1 for
	// synthetic traffic.
	Event int32
}

// Port identifies a router port. Inputs come first, then outputs; the
// express ports exist only on FastTrack routers.
type Port uint8

// Router ports. W/N are inputs (packets arrive from the west and north),
// E/S are outputs (the torus is unidirectional). The Sh/Ex suffix is the
// link class, mirroring the paper's Fig 9 labels.
const (
	PortWSh Port = iota // west short input
	PortWEx             // west express input
	PortNSh             // north short input
	PortNEx             // north express input
	PortPE              // client injection input
	PortESh             // east short output
	PortEEx             // east express output
	PortSSh             // south short output (shared with the NoC exit)
	PortSEx             // south express output (shared with the express exit)
	NumPorts
)

var portNames = [NumPorts]string{
	"W.sh", "W.ex", "N.sh", "N.ex", "PE", "E.sh", "E.ex", "S.sh", "S.ex",
}

// String returns the short label used in tables ("W.ex" etc.).
func (p Port) String() string {
	if int(p) < len(portNames) {
		return portNames[p]
	}
	return fmt.Sprintf("Port(%d)", uint8(p))
}

// IsExpress reports whether the port belongs to the express plane.
func (p Port) IsExpress() bool {
	return p == PortWEx || p == PortNEx || p == PortEEx || p == PortSEx
}

// Counters aggregates network-wide events. The split by input port feeds
// the paper's Fig 18; the link-class traversal counts feed Fig 18a.
type Counters struct {
	// ShortTraversals and ExpressTraversals count link hops network-wide.
	ShortTraversals   int64
	ExpressTraversals int64
	// MisroutesByInput[p] counts true deflections: packets arriving on
	// input p that were sent away from their dimension-ordered path.
	MisroutesByInput [NumPorts]int64
	// ExpressDeniedByInput[p] counts packets arriving on input p that were
	// forced onto a short link (or a less-preferred exit driver) when they
	// preferred an express resource — the paper's Fig 18b notion of an
	// "input deflection".
	ExpressDeniedByInput [NumPorts]int64
	// InjectionStalls counts cycles a PE offered a packet and was refused.
	InjectionStalls int64
	// Delivered counts packets handed to clients.
	Delivered int64
}

// Add folds other into c field-wise, for totals over several runs.
func (c *Counters) Add(other *Counters) {
	c.ShortTraversals += other.ShortTraversals
	c.ExpressTraversals += other.ExpressTraversals
	for i := range c.MisroutesByInput {
		c.MisroutesByInput[i] += other.MisroutesByInput[i]
	}
	for i := range c.ExpressDeniedByInput {
		c.ExpressDeniedByInput[i] += other.ExpressDeniedByInput[i]
	}
	c.InjectionStalls += other.InjectionStalls
	c.Delivered += other.Delivered
}

// TotalDeflections sums true misroutes across input ports.
func (c *Counters) TotalDeflections() int64 {
	var t int64
	for _, v := range c.MisroutesByInput {
		t += v
	}
	return t
}

// TotalExpressDenied sums express-denial events across input ports.
func (c *Counters) TotalExpressDenied() int64 {
	var t int64
	for _, v := range c.ExpressDeniedByInput {
		t += v
	}
	return t
}

// Network is a cycle-accurate NoC. Its per-cycle protocol is:
//
//  1. Offer at most one packet per PE for injection.
//  2. Step(now) routes all in-flight packets and decides which offers were
//     accepted; links latch so the next cycle sees the new state.
//  3. Read Accepted for each offering PE and Delivered for the packets that
//     exited this cycle.
//
// An Offer lasts one cycle: if it is not accepted it is forgotten and the
// client must offer again. External drivers (the benchmark's phase loop)
// rely on nothing else. The engine drives the Standing half instead, where
// an offer is presented once and stays latched until it is accepted,
// replaced or retracted, like a hardware valid register; every production
// network implements it, and sim.Run drives no other Network.
type Network interface {
	// Width and Height return the torus dimensions in routers.
	Width() int
	Height() int
	// NumPEs returns Width*Height; PE i sits at (i%Width, i/Width).
	NumPEs() int
	// Offer presents a packet for injection at PE pe this cycle only.
	Offer(pe int, p Packet)
	// Step advances the network one clock cycle. A Step with nothing in
	// flight and nothing offered must leave no trace: the engine's idle
	// fast-forward skips such cycles instead of executing them.
	Step(now int64)
	// Accepted reports whether the packet offered at pe was injected during
	// the latest Step.
	Accepted(pe int) bool
	// Delivered returns the packets delivered during the latest Step. The
	// slice is reused between cycles; callers must not retain it.
	Delivered() []Packet
	// InFlight returns the number of packets currently inside the network.
	InFlight() int
	// Counters exposes the event counters for measurement.
	Counters() *Counters
}

// Standing is the standing-offer port the engine drives (sim.Run): a PE's
// offer is presented once and the network keeps it latched across refusals,
// so a stalled client costs nothing until its offer changes.
type Standing interface {
	Network
	// Hold latches p as pe's offer until it is accepted, replaced by another
	// Hold or Offer at pe, or withdrawn by Retract. A refused standing offer
	// counts one injection stall per cycle, exactly as if it were re-offered.
	Hold(pe int, p Packet)
	// Retract withdraws pe's offer, if any.
	Retract(pe int)
	// AcceptedPEs lists the PEs whose offers the latest Step accepted. The
	// slice is reused between cycles; callers must not retain it.
	AcceptedPEs() []int
}

// PEIndex converts a coordinate to the PE index used by Network.
func PEIndex(c Coord, width int) int { return c.Y*width + c.X }

// PECoord converts a PE index to its coordinate.
func PECoord(pe, width int) Coord { return Coord{X: pe % width, Y: pe / width} }
