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

	"fasttrack/internal/fabric"
	"fasttrack/internal/noc"
)

// Link-register planes of the fabric kernel: what arrives on the W input
// (from the west neighbour) and on the N input (from the north neighbour).
const (
	planeW = iota
	planeN
	numPlanes
)

// Network is a W×H Hoplite torus: the shared fabric kernel (register planes,
// packet pool, occupancy-driven stepping — see internal/fabric) with the
// Hoplite arbiter plugged in. Create with New; the zero value is
// not usable.
type Network struct {
	fabric.Kernel

	// Full-packet link registers and output staging of the dense reference
	// path, indexed by destination-router index (y*W + x). SetDense(true)
	// allocates them; the sparse path never does.
	wIn, nIn   []fabric.Slot
	eOut, sOut []fabric.Slot
	dense      bool

	// exitGate, when non-nil, is consulted before delivering at PE pe; a
	// false return blocks the exit for this cycle and the packet deflects.
	// Multi-channel wrappers use it to share one client port across
	// channels.
	exitGate func(pe int) bool
}

// SetExitGate installs an exit arbiter; see the exitGate field.
func (nw *Network) SetExitGate(gate func(pe int) bool) { nw.exitGate = gate }

func (nw *Network) canExit(pe int) bool { return nw.exitGate == nil || nw.exitGate(pe) }

// New returns an idle W×H Hoplite network. Both dimensions must be at
// least 2 (a 1-wide ring has no distinct neighbour registers).
func New(w, h int) (*Network, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("hoplite: dimensions %dx%d too small (need at least 2x2)", w, h)
	}
	nw := &Network{}
	nw.Init(fabric.Spec{W: w, H: h, Planes: numPlanes}, nw, nil)
	return nw, nil
}

// SetDense selects the reference stepping path: clear and route all N²
// routers every cycle instead of only occupied ones. The two paths are
// bit-exact (the golden equivalence tests compare them); the dense path
// exists as the straightforward baseline for those tests and for
// benchmarking the sparse path's speedup. Select before the first Step; the
// first SetDense(true) allocates the full-packet registers.
func (nw *Network) SetDense(d bool) {
	nw.dense = d
	if d && nw.wIn == nil {
		n := nw.W * nw.H
		nw.wIn, nw.nIn = make([]fabric.Slot, n), make([]fabric.Slot, n)
		nw.eOut, nw.sOut = make([]fabric.Slot, n), make([]fabric.Slot, n)
	}
}

// Step advances the network one cycle. The kernel visits only routers
// holding an in-flight input or a pending offer, in ascending router index —
// identical to the dense path's row-major scan — so delivery order, and with
// it every downstream floating-point accumulation, is bit-exact with
// SetDense(true).
func (nw *Network) Step(now int64) {
	if nw.dense {
		nw.stepDense(now)
		return
	}
	nw.Kernel.Step(now)
}

// fwdE and fwdS latch pool index r onto the downstream router's next-cycle
// input register. The hop accounting the dense path does in its latch pass
// happens here, at forward time — the totals and per-packet values at
// delivery are identical.
func (nw *Network) fwdE(sh *fabric.Shard, r int32, x, y int) {
	nw.Pool[r].ShortHops++
	sh.Counters.ShortTraversals++
	j := y*nw.W + (x+1)%nw.W
	nw.Next[planeW][j] = r
	sh.Mark(j)
}

func (nw *Network) fwdS(sh *fabric.Shard, r int32, x, y int) {
	nw.Pool[r].ShortHops++
	sh.Counters.ShortTraversals++
	j := ((y+1)%nw.H)*nw.W + x
	nw.Next[planeN][j] = r
	sh.Mark(j)
}

// obsHop reports the short-hop grant for pool slot r at router i. It is a
// separate method, invoked behind the caller's nil check, so fwdE/fwdS stay
// small enough to inline — the forwarders are the hottest functions in the
// sparse path and must not pay for telemetry when it is off.
func (nw *Network) obsHop(sh *fabric.Shard, i int, out noc.Port, r int32) {
	sh.Obs.OnHop(sh.Now, i, out, &nw.Pool[r])
}

// Route implements fabric.Router: the arbiter the kernel calls for each
// active router. It makes the same decisions as the dense reference route,
// but over pool indices — staying on the ring costs an int32 move instead of
// an 80-byte slot copy — and with the latch fused in: granting an output
// writes the downstream next-cycle register directly.
func (nw *Network) Route(sh *fabric.Shard, i, x, y int, now int64) {
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
				nw.DeliverIdx(sh, r)
			} else {
				p.Deflections++
				sh.Counters.MisroutesByInput[noc.PortWSh]++
				if sh.Obs != nil {
					sh.Obs.OnDeflect(sh.Now, i, noc.PortWSh, p)
				}
				nw.fwdE(sh, r, x, y)
				if sh.Obs != nil {
					nw.obsHop(sh, i, noc.PortESh, r)
				}
				eTaken = true
			}
		case p.Dst.X != x:
			nw.fwdE(sh, r, x, y)
			if sh.Obs != nil {
				nw.obsHop(sh, i, noc.PortESh, r)
			}
			eTaken = true
		default:
			nw.fwdS(sh, r, x, y)
			if sh.Obs != nil {
				nw.obsHop(sh, i, noc.PortSSh, r)
			}
			sTaken = true
		}
	}

	if r := nw.Cur[planeN][i]; r >= 0 {
		nw.Cur[planeN][i] = -1
		p := &nw.Pool[r]
		atDst := p.Dst.X == x && p.Dst.Y == y
		if atDst && !nw.canExit(i) {
			p.Deflections++
			sh.Counters.MisroutesByInput[noc.PortNSh]++
			if sh.Obs != nil {
				sh.Obs.OnDeflect(sh.Now, i, noc.PortNSh, p)
			}
			if !eTaken {
				nw.fwdE(sh, r, x, y)
				if sh.Obs != nil {
					nw.obsHop(sh, i, noc.PortESh, r)
				}
				eTaken = true
			} else {
				nw.fwdS(sh, r, x, y)
				if sh.Obs != nil {
					nw.obsHop(sh, i, noc.PortSSh, r)
				}
				sTaken = true
			}
		} else if !sTaken {
			sTaken = true
			if atDst {
				nw.DeliverIdx(sh, r)
			} else {
				nw.fwdS(sh, r, x, y)
				if sh.Obs != nil {
					nw.obsHop(sh, i, noc.PortSSh, r)
				}
			}
		} else {
			p.Deflections++
			sh.Counters.MisroutesByInput[noc.PortNSh]++
			if sh.Obs != nil {
				sh.Obs.OnDeflect(sh.Now, i, noc.PortNSh, p)
			}
			nw.fwdE(sh, r, x, y)
			if sh.Obs != nil {
				nw.obsHop(sh, i, noc.PortESh, r)
			}
			eTaken = true
		}
	}

	// accepted[i] is already false here: the kernel cleared every flag set
	// last cycle before routing started.
	if off := &nw.Offers[i]; off.OK {
		switch {
		case off.P.Dst.X != x && !eTaken:
			r := nw.Inject(sh, i, now)
			nw.fwdE(sh, r, x, y)
			if sh.Obs != nil {
				nw.obsHop(sh, i, noc.PortESh, r)
			}
		case off.P.Dst.X == x && off.P.Dst.Y == y:
			if !sTaken && nw.canExit(i) {
				p := off.P
				p.Inject = now
				nw.Accept(sh, i)
				nw.Deliver(sh, p)
			} else {
				nw.Refuse(sh, i)
			}
		case off.P.Dst.X == x && !sTaken:
			r := nw.Inject(sh, i, now)
			nw.fwdS(sh, r, x, y)
			if sh.Obs != nil {
				nw.obsHop(sh, i, noc.PortSSh, r)
			}
		default:
			nw.Refuse(sh, i)
		}
	}
}

// stepDense is the reference path: clear all staging, route all routers,
// latch all links.
func (nw *Network) stepDense(now int64) {
	s0 := nw.BeginDense(now)
	for i := range nw.eOut {
		nw.eOut[i] = fabric.Slot{}
		nw.sOut[i] = fabric.Slot{}
	}

	for y := 0; y < nw.H; y++ {
		for x := 0; x < nw.W; x++ {
			nw.route(s0, x, y, now)
		}
	}

	// Latch: outputs become the neighbours' inputs.
	for y := 0; y < nw.H; y++ {
		for x := 0; x < nw.W; x++ {
			i := y*nw.W + x
			e := nw.eOut[i]
			if e.OK {
				e.P.ShortHops++
				s0.Counters.ShortTraversals++
				if s0.Obs != nil {
					s0.Obs.OnHop(now, i, noc.PortESh, &e.P)
				}
			}
			nw.wIn[y*nw.W+(x+1)%nw.W] = e
			s := nw.sOut[i]
			if s.OK {
				s.P.ShortHops++
				s0.Counters.ShortTraversals++
				if s0.Obs != nil {
					s0.Obs.OnHop(now, i, noc.PortSSh, &s.P)
				}
			}
			nw.nIn[((y+1)%nw.H)*nw.W+x] = s
		}
	}
}

// route arbitrates one router for the current cycle on the dense reference
// path, moving whole packets between the full-slot link registers. The
// sparse path's Route makes the same decisions over pool indices.
func (nw *Network) route(s0 *fabric.Shard, x, y int, now int64) {
	i := y*nw.W + x
	var eTaken, sTaken bool

	// W input: highest priority, always granted its desired port.
	if in := &nw.wIn[i]; in.OK {
		p := in.P
		switch {
		case p.Dst.X == x && p.Dst.Y == y:
			if nw.canExit(i) {
				// Exit shares the S driver.
				sTaken = true
				nw.Deliver(s0, p)
			} else {
				// Client port busy (multi-channel sharing): loop the ring.
				p.Deflections++
				s0.Counters.MisroutesByInput[noc.PortWSh]++
				if s0.Obs != nil {
					s0.Obs.OnDeflect(now, i, noc.PortWSh, &p)
				}
				nw.eOut[i] = fabric.Slot{P: p, OK: true}
				eTaken = true
			}
		case p.Dst.X != x:
			nw.eOut[i] = fabric.Slot{P: p, OK: true}
			eTaken = true
		default:
			nw.sOut[i] = fabric.Slot{P: p, OK: true}
			sTaken = true
		}
	}

	// N input: wants S (continue down or exit); deflected east if W holds S.
	if in := &nw.nIn[i]; in.OK {
		p := in.P
		atDst := p.Dst.X == x && p.Dst.Y == y
		if atDst && !nw.canExit(i) {
			// Exit blocked by the shared client port: take either free
			// ring and come back around.
			p.Deflections++
			s0.Counters.MisroutesByInput[noc.PortNSh]++
			if s0.Obs != nil {
				s0.Obs.OnDeflect(now, i, noc.PortNSh, &p)
			}
			if !eTaken {
				nw.eOut[i] = fabric.Slot{P: p, OK: true}
				eTaken = true
			} else {
				nw.sOut[i] = fabric.Slot{P: p, OK: true}
				sTaken = true
			}
		} else if !sTaken {
			sTaken = true
			if atDst {
				nw.Deliver(s0, p)
			} else {
				nw.sOut[i] = fabric.Slot{P: p, OK: true}
			}
		} else {
			// Deflect east. E must be free: W consumed exactly one port and
			// it was S. The packet will circle the X ring and return as a W
			// input, which always wins.
			p.Deflections++
			s0.Counters.MisroutesByInput[noc.PortNSh]++
			if s0.Obs != nil {
				s0.Obs.OnDeflect(now, i, noc.PortNSh, &p)
			}
			nw.eOut[i] = fabric.Slot{P: p, OK: true}
			eTaken = true
		}
	}

	// PE injection: lowest priority, only into the packet's DOR-desired
	// port, otherwise the client retries next cycle.
	if off := &nw.Offers[i]; off.OK {
		p := off.P
		p.Inject = now
		switch {
		case p.Dst.X != x && !eTaken:
			nw.eOut[i] = fabric.Slot{P: p, OK: true}
			nw.Accept(s0, i)
		case p.Dst.X == x && p.Dst.Y == y:
			if !sTaken && nw.canExit(i) {
				// Self-addressed packet: delivered through the exit port.
				nw.Accept(s0, i)
				nw.Deliver(s0, p)
			} else {
				nw.Refuse(s0, i)
			}
		case p.Dst.X == x && !sTaken:
			nw.sOut[i] = fabric.Slot{P: p, OK: true}
			nw.Accept(s0, i)
		default:
			nw.Refuse(s0, i)
		}
	}
}
