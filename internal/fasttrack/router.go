package fasttrack

import (
	"fmt"

	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
)

// route arbitrates router i = (x, y) for cycle now. Inputs are processed in
// the paper's static priority order — WEx > NEx > WSh > NSh > PE — so
// express turning traffic preempts everything, X-ring traffic preempts
// Y-ring traffic, and client injection only uses ports left idle by
// in-flight packets (§IV-C). It moves pool indices — staying on a ring moves
// an int32 instead of copying an 80-byte packet — with the latch fused in:
// granting an output writes the downstream next-cycle register directly
// (emitR).
func (nw *Network) route(i, x, y int, now int64) {
	// busy marks the outputs granted so far; the express outputs a
	// depopulated router lacks start out taken.
	rc := (nw.xcls[x] | nw.ycls[y]) & routerBits
	var busy uint8
	if rc&cHX == 0 {
		busy |= 1 << oEEx
	}
	if rc&cHY == 0 {
		busy |= 1 << oSEx
	}

	// Inputs are consumed in the static priority order, and cleared as they
	// are read. Unrolled: one branch site per port predicts measurably
	// better than a loop over the four.
	if r := nw.Cur[noc.PortWEx][i]; r >= 0 {
		nw.Cur[noc.PortWEx][i] = -1
		nw.placeR(&busy, i, noc.PortWEx, r, x, y)
	}
	if r := nw.Cur[noc.PortNEx][i]; r >= 0 {
		nw.Cur[noc.PortNEx][i] = -1
		nw.placeR(&busy, i, noc.PortNEx, r, x, y)
	}
	if r := nw.Cur[noc.PortWSh][i]; r >= 0 {
		nw.Cur[noc.PortWSh][i] = -1
		nw.placeR(&busy, i, noc.PortWSh, r, x, y)
	}
	if r := nw.Cur[noc.PortNSh][i]; r >= 0 {
		nw.Cur[noc.PortNSh][i] = -1
		nw.placeR(&busy, i, noc.PortNSh, r, x, y)
	}
	nw.injectAtR(busy, i, x, y, now)
}

// placeR assigns the in-flight packet at pool index r an output, walking the
// policy's list for its input port and offset class (policy.go). Bufferless
// routers must never drop an in-flight packet; the priority discipline plus
// the recoverable emergency tails make the assignment total, so running out
// of ports is a router bug and panics. A grant past the list's first entry
// that is not a misroute counts as an express denial.
func (nw *Network) placeR(busy *uint8, i int, port noc.Port, r int32, x, y int) {
	p := &nw.Pool[r]
	for k, c := range &nw.pol[port][nw.class(x, y, p.Dst)] {
		if c == 0 {
			break
		}
		if *busy&(1<<c.out()) != 0 {
			continue
		}
		*busy |= 1 << c.out()
		if c&mis != 0 {
			nw.Tally.MisroutesByInput[port]++
			p.Deflections++
			nw.Hop(i, port, telemetry.HopDeflect, p)
		} else if k > 0 {
			nw.Tally.ExpressDeniedByInput[port]++
			nw.Hop(i, port, telemetry.HopDenied, p)
		}
		if c&dlv != 0 {
			nw.DeliverIdx(r)
		} else {
			nw.emitR(c.out(), r, i, x, y)
		}
		return
	}
	panic(fmt.Sprintf("fasttrack: router (%d,%d) overcommitted: input %v packet %v->%v has no free output",
		x, y, port, p.Src, p.Dst))
}

// class returns the offset-class bits of a packet at router (x, y) bound for
// dst.
func (nw *Network) class(x, y int, dst noc.Coord) uint8 {
	return (nw.xcls[delta(x, dst.X, nw.n)] | nw.ycls[delta(y, dst.Y, nw.n)]) & offsetBits
}

// peRow returns the PE-list row of an offer at router i bound for dst: its
// offset class and the router's class.
func (nw *Network) peRow(i int, dst noc.Coord) uint8 {
	x, y := i%nw.n, i/nw.n
	return nw.class(x, y, dst) | (nw.xcls[x]|nw.ycls[y])&routerBits
}

// emitR latches pool index r onto the downstream register for output out and
// accounts the hop there, at grant time. A pipelined express grant parks in
// exPend/syPend for the pipe pass instead.
func (nw *Network) emitR(out uint8, r int32, i, x, y int) {
	n, d := nw.n, nw.cfg.Topology.D
	p := &nw.Pool[r]
	switch out {
	case oESh:
		p.ShortHops++
		nw.Tally.ShortTraversals++
		nw.Hop(i, noc.PortESh, telemetry.HopLocal, p)
		nw.latchR(noc.PortWSh, y*n+(x+1)%n, r)
	case oSSh:
		p.ShortHops++
		nw.Tally.ShortTraversals++
		nw.Hop(i, noc.PortSSh, telemetry.HopLocal, p)
		nw.latchR(noc.PortNSh, ((y+1)%n)*n+x, r)
	case oEEx:
		p.ExpressHops++
		nw.Tally.ExpressTraversals++
		nw.Hop(i, noc.PortEEx, telemetry.HopExpress, p)
		if nw.exPend != nil {
			nw.exPend[i] = r
		} else {
			nw.latchR(noc.PortWEx, y*n+(x+d)%n, r)
		}
	case oSEx:
		p.ExpressHops++
		nw.Tally.ExpressTraversals++
		nw.Hop(i, noc.PortSEx, telemetry.HopExpress, p)
		if nw.syPend != nil {
			nw.syPend[i] = r
		} else {
			nw.latchR(noc.PortNEx, ((y+d)%n)*n+x, r)
		}
	}
}

// injectAtR arbitrates the PE offer after all in-flight traffic has been
// placed, walking the policy's PE list for the offer's row (offRow: its
// offset class and the router's class). The offered packet is copied into
// the pool only when an output is granted. Injection never misroutes: if
// every acceptable first-hop port is busy the client stalls and retries
// (§IV-C: the PE port has the lowest priority because in-flight packets
// cannot wait). The accepted flag is already false here — Begin cleared
// every flag set last cycle.
func (nw *Network) injectAtR(busy uint8, i, x, y int, now int64) {
	off := &nw.Offers[i]
	if !off.OK {
		return
	}
	for k, c := range &nw.pol[noc.PortPE][nw.offRow[i]] {
		if c == 0 {
			break
		}
		if busy&(1<<c.out()) != 0 {
			continue
		}
		if k > 0 {
			nw.Tally.ExpressDeniedByInput[noc.PortPE]++
			nw.Hop(i, noc.PortPE, telemetry.HopDenied, &off.P)
		}
		if c&dlv != 0 {
			p := off.P
			p.Inject = now
			nw.Accept(i)
			nw.Deliver(p)
		} else {
			nw.emitR(c.out(), nw.Inject(i, now), i, x, y)
		}
		return
	}
	nw.Refuse(i)
}
