// Package hoplite implements the baseline Hoplite NoC (Kapre & Gray, FPL
// 2015 / TRETS 2017): a bufferless, deflection-routed 2-D unidirectional
// torus with dimension-ordered (X-then-Y) routing and the HopliteRT static
// turn prioritization the FastTrack paper builds on.
//
// Each router has two network inputs (W from the west neighbour, N from the
// north neighbour), one client injection port (PE), and two outputs (E, S).
// The NoC exit is shared with the S output driver, so a delivery consumes
// the S port for that cycle. Arbitration is static:
//
//	W input wins always (turning W→S traffic preempts N→S traffic),
//	N input is deflected east when W takes the S port,
//	PE injection happens only into an output left idle by network traffic.
//
// This static scheme is livelock-free: a deflected N packet circles its X
// ring exactly once and returns as a W packet, which is never deflected.
package hoplite

import (
	"fmt"
	"math/bits"

	"fasttrack/internal/fabric"
	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
)

// Link-register planes of the fabric kernel: what arrives on the W input
// (from the west neighbour) and on the N input (from the north neighbour).
const (
	planeW = iota
	planeN
	numPlanes
)

// Network is a W×H Hoplite torus: the shared fabric kernel (register planes,
// packet pool, occupancy bitset — see internal/fabric) stepped by the Hoplite
// arbiter. Create with New; the zero value is not usable.
type Network struct {
	fabric.Kernel

	// ExitBusy, when non-nil, marks client ports already used this cycle; a
	// packet at a busy exit deflects. Multi-channel wrappers share one mask
	// across channels so each PE accepts one delivery per cycle.
	ExitBusy []bool
}

func (nw *Network) canExit(pe int) bool { return nw.ExitBusy == nil || !nw.ExitBusy[pe] }

// New returns an idle W×H Hoplite network. Both dimensions must be at
// least 2 (a 1-wide ring has no distinct neighbour registers).
func New(w, h int) (*Network, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("hoplite: dimensions %dx%d too small (need at least 2x2)", w, h)
	}
	nw := &Network{}
	nw.Init(fabric.Spec{W: w, H: h, Planes: numPlanes})
	return nw, nil
}

// Step advances the network one cycle: every active router routes its inputs
// in ascending router index (fabric.Kernel.Begin), then the links latch.
func (nw *Network) Step(now int64) {
	for wd, b := range nw.Begin(now) {
		for ; b != 0; b &= b - 1 {
			i := wd<<6 + bits.TrailingZeros64(b)
			nw.route(i, i%nw.W, i/nw.W, now)
		}
	}
	nw.End()
}

// fwdE and fwdS latch pool index r onto the downstream router's next-cycle
// input register and account the hop there, at forward time.
func (nw *Network) fwdE(r int32, x, y int) {
	nw.Pool[r].ShortHops++
	nw.Tally.ShortTraversals++
	j := y*nw.W + (x+1)%nw.W
	nw.Next[planeW][j] = r
	nw.Mark(j)
}

func (nw *Network) fwdS(r int32, x, y int) {
	nw.Pool[r].ShortHops++
	nw.Tally.ShortTraversals++
	j := ((y+1)%nw.H)*nw.W + x
	nw.Next[planeN][j] = r
	nw.Mark(j)
}

// route arbitrates router i = (x, y) for cycle now: it consumes the inputs in
// Cur, latches grants into Next and resolves the offer. It moves pool
// indices — staying on the ring costs an int32 move, not an 80-byte packet
// copy — with the latch fused in: granting an output writes the downstream
// next-cycle register directly. The static priorities are the package doc's.
func (nw *Network) route(i, x, y int, now int64) {
	var eTaken, sTaken bool

	// Inputs are consumed (and cleared, so a router that goes idle does not
	// replay stale packets when it reactivates) as they are read.
	if r := nw.Cur[planeW][i]; r >= 0 {
		nw.Cur[planeW][i] = -1
		p := &nw.Pool[r]
		switch {
		case p.Dst.X == x && p.Dst.Y == y:
			if nw.canExit(i) {
				sTaken = true
				nw.DeliverIdx(r)
			} else {
				p.Deflections++
				nw.Tally.MisroutesByInput[noc.PortWSh]++
				nw.Hop(i, noc.PortWSh, telemetry.HopDeflect, p)
				nw.fwdE(r, x, y)
				nw.Hop(i, noc.PortESh, telemetry.HopLocal, p)
				eTaken = true
			}
		case p.Dst.X != x:
			nw.fwdE(r, x, y)
			nw.Hop(i, noc.PortESh, telemetry.HopLocal, p)
			eTaken = true
		default:
			nw.fwdS(r, x, y)
			nw.Hop(i, noc.PortSSh, telemetry.HopLocal, p)
			sTaken = true
		}
	}

	if r := nw.Cur[planeN][i]; r >= 0 {
		nw.Cur[planeN][i] = -1
		p := &nw.Pool[r]
		atDst := p.Dst.X == x && p.Dst.Y == y
		if atDst && !nw.canExit(i) {
			p.Deflections++
			nw.Tally.MisroutesByInput[noc.PortNSh]++
			nw.Hop(i, noc.PortNSh, telemetry.HopDeflect, p)
			if !eTaken {
				nw.fwdE(r, x, y)
				nw.Hop(i, noc.PortESh, telemetry.HopLocal, p)
				eTaken = true
			} else {
				nw.fwdS(r, x, y)
				nw.Hop(i, noc.PortSSh, telemetry.HopLocal, p)
				sTaken = true
			}
		} else if !sTaken {
			sTaken = true
			if atDst {
				nw.DeliverIdx(r)
			} else {
				nw.fwdS(r, x, y)
				nw.Hop(i, noc.PortSSh, telemetry.HopLocal, p)
			}
		} else {
			p.Deflections++
			nw.Tally.MisroutesByInput[noc.PortNSh]++
			nw.Hop(i, noc.PortNSh, telemetry.HopDeflect, p)
			nw.fwdE(r, x, y)
			nw.Hop(i, noc.PortESh, telemetry.HopLocal, p)
			eTaken = true
		}
	}

	// accepted[i] is already false here: Begin cleared every flag set last
	// cycle before routing started.
	if off := &nw.Offers[i]; off.OK {
		switch {
		case off.P.Dst.X != x && !eTaken:
			r := nw.Inject(i, now)
			nw.fwdE(r, x, y)
			nw.Hop(i, noc.PortESh, telemetry.HopLocal, &nw.Pool[r])
		case off.P.Dst.X == x && off.P.Dst.Y == y:
			if !sTaken && nw.canExit(i) {
				p := off.P
				p.Inject = now
				nw.Accept(i)
				nw.Deliver(p)
			} else {
				nw.Refuse(i)
			}
		case off.P.Dst.X == x && !sTaken:
			r := nw.Inject(i, now)
			nw.fwdS(r, x, y)
			nw.Hop(i, noc.PortSSh, telemetry.HopLocal, &nw.Pool[r])
		default:
			nw.Refuse(i)
		}
	}
}
