package fasttrack

import (
	"fmt"

	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
)

// cand is one entry in an input's output-port preference list.
type cand struct {
	out uint8
	// deliver marks the NoC exit tap: the packet leaves through the named
	// driver but is handed to the client instead of the downstream link.
	deliver bool
	// misroute marks candidates that move the packet away from its
	// dimension-ordered path (true deflections, counted on the packet).
	misroute bool
}

// prefs is a fixed-capacity preference list (no per-packet allocation on the
// hot path). add deduplicates by output port so defensive tails never shadow
// a smarter earlier candidate.
type prefs struct {
	c    [8]cand
	n    int
	seen [numOuts]bool
}

func (p *prefs) add(out uint8, deliver, misroute bool) {
	if p.seen[out] {
		return
	}
	p.seen[out] = true
	p.c[p.n] = cand{out: out, deliver: deliver, misroute: misroute}
	p.n++
}

// arb holds the per-router, per-cycle arbitration state.
type arb struct {
	taken  [numOuts]bool
	exists [numOuts]bool
}

// prefsFor builds the output preference list for an in-flight packet bound
// for dst on the given input port at router (x, y).
//
// The lists implement the paper's rules: dimension-ordered routing with
// express links used only when the remaining offset is a multiple of D
// ("destination reachable entirely within the express network"), express→
// short transfers only at turns and exits, short→express upgrades on Full
// routers only, and the §IV-D livelock repertoire (deflected exit traffic
// may take either E port; deflected WSh may ride EEx home as a top-priority
// WEx). Each list ends in a recoverable emergency tail so the assignment is
// total: misrouted packets simply resume dimension-ordered routing, and a
// misaligned express packet pops off to the short lane at the next router.
func (nw *Network) prefsFor(port noc.Port, dst noc.Coord, x, y int) prefs {
	t := nw.cfg.Topology
	n := nw.n
	dx := noc.RingDelta(x, dst.X, n)
	dy := noc.RingDelta(y, dst.Y, n)
	full := nw.cfg.Variant == VariantFull

	// exAfterEast reports whether deflecting onto the X express link leaves
	// the packet express-aligned (able to ride express to its turn column).
	exAfterEast := func() bool {
		nd := dx - t.D
		if nd < 0 {
			nd += n
		}
		return nd%t.D == 0
	}

	var pr prefs
	express := port == noc.PortWEx || port == noc.PortNEx
	switch port {
	case noc.PortWEx:
		switch {
		case dx == 0 && dy == 0:
			// The NoC exit shares the SSh driver (as in Hoplite, §II), so a
			// router delivers at most one packet per cycle. The Inject
			// variant's express plane instead taps its own SEx driver —
			// required for lane isolation (no Ex→Sh crossing, Fig 9c).
			if full {
				pr.add(oSSh, true, false)
			} else {
				pr.add(oSEx, true, false)
				pr.add(oSSh, true, false)
			}
		case dx == 0:
			// Turn into the Y ring; stay express when the remaining Y
			// offset is express-aligned.
			if dy%t.D == 0 {
				pr.add(oSEx, false, false)
			}
			pr.add(oSSh, false, false)
		case dx%t.D == 0:
			pr.add(oEEx, false, false)
		default:
			// Misaligned express packet (deflection debris when D ∤ N):
			// pop off to the short lane, same direction.
			pr.add(oESh, false, false)
		}

	case noc.PortNEx:
		switch {
		case dx != 0 && full:
			// A misrouted packet resumes X-first routing.
			if dx%t.D == 0 {
				pr.add(oEEx, false, false)
			}
			pr.add(oESh, false, false)
		case dx == 0 && dy == 0:
			if full {
				pr.add(oSSh, true, false)
			} else {
				pr.add(oSEx, true, false)
			}
			// Exit denied: circle a ring and return with top priority
			// (§IV-D: N packets may take either E port).
			if exAfterEast() {
				pr.add(oEEx, false, true)
			}
			if full {
				pr.add(oESh, false, true)
			}
		case dy%t.D == 0:
			pr.add(oSEx, false, false)
			if exAfterEast() {
				pr.add(oEEx, false, true)
			}
			if full {
				pr.add(oESh, false, true)
			}
		default:
			// Misaligned: pop off downward (Full only; cannot arise under
			// Inject, which requires D | N).
			if full {
				pr.add(oSSh, false, false)
			}
		}

	case noc.PortWSh:
		switch {
		case dx == 0 && dy == 0:
			pr.add(oSSh, true, false)
			// Deflected at the exit: prefer the express ring back — the
			// packet returns as WEx, the top-priority port (§IV-D).
			if full && exAfterEast() {
				pr.add(oEEx, false, true)
			}
			pr.add(oESh, false, true)
		case dx == 0:
			// Turn. Full routers may upgrade onto the Y express lane.
			if full && dy%t.D == 0 {
				pr.add(oSEx, false, false)
			}
			pr.add(oSSh, false, false)
			if full && exAfterEast() {
				pr.add(oEEx, false, true)
			}
			pr.add(oESh, false, true)
		default:
			// Continue east; Full routers upgrade when aligned.
			if full && dx%t.D == 0 {
				pr.add(oEEx, false, false)
			}
			pr.add(oESh, false, false)
		}

	case noc.PortNSh:
		switch {
		case dx != 0:
			// Misrouted packet resumes X-first routing eastward.
			if full && dx%t.D == 0 {
				pr.add(oEEx, false, false)
			}
			pr.add(oESh, false, false)
		case dy == 0:
			pr.add(oSSh, true, false)
			// Prefer the express ring back: the packet returns as WEx, the
			// top-priority input, and cannot be denied twice (§IV-D).
			if full && exAfterEast() {
				pr.add(oEEx, false, true)
			}
			pr.add(oESh, false, true)
		default:
			if full && dy%t.D == 0 {
				pr.add(oSEx, false, false)
			}
			pr.add(oSSh, false, false)
			if full && exAfterEast() {
				pr.add(oEEx, false, true)
			}
			pr.add(oESh, false, true)
		}

	default:
		panic("fasttrack: prefsFor on non-input port " + port.String())
	}

	// Recoverable emergency tail. Full routers may spill onto any lane (a
	// misaligned express packet pops off at the next router; a misrouted
	// packet resumes DOR). Inject routers must stay in their lane, which is
	// total because each lane is a self-contained 2-in/2-out Hoplite plane.
	if full {
		pr.add(oESh, false, true)
		pr.add(oEEx, false, true)
		pr.add(oSSh, false, true)
		pr.add(oSEx, false, true)
	} else if express {
		pr.add(oEEx, false, true)
		pr.add(oSEx, false, true)
	} else {
		pr.add(oESh, false, true)
		pr.add(oSSh, false, true)
	}
	return pr
}

// route arbitrates router i = (x, y) for cycle now. Inputs are processed in
// the paper's static priority order — WEx > NEx > WSh > NSh > PE — so
// express turning traffic preempts everything, X-ring traffic preempts
// Y-ring traffic, and client injection only uses ports left idle by
// in-flight packets (§IV-C). It moves pool indices — staying on a ring moves
// an int32 instead of copying an 80-byte packet — with the latch fused in:
// granting an output writes the downstream next-cycle register directly
// (emitR).
func (nw *Network) route(i, x, y int, now int64) {
	a := arb{exists: nw.tabs.exists[i]}

	// Inputs are consumed in the static priority order, and cleared as they
	// are read. Unrolled: one branch site per port predicts measurably
	// better than a loop over the four.
	if r := nw.Cur[noc.PortWEx][i]; r >= 0 {
		nw.Cur[noc.PortWEx][i] = -1
		nw.placeR(&a, i, noc.PortWEx, r, x, y)
	}
	if r := nw.Cur[noc.PortNEx][i]; r >= 0 {
		nw.Cur[noc.PortNEx][i] = -1
		nw.placeR(&a, i, noc.PortNEx, r, x, y)
	}
	if r := nw.Cur[noc.PortWSh][i]; r >= 0 {
		nw.Cur[noc.PortWSh][i] = -1
		nw.placeR(&a, i, noc.PortWSh, r, x, y)
	}
	if r := nw.Cur[noc.PortNSh][i]; r >= 0 {
		nw.Cur[noc.PortNSh][i] = -1
		nw.placeR(&a, i, noc.PortNSh, r, x, y)
	}
	nw.injectAtR(&a, i, x, y, now)
}

// placeR assigns the in-flight packet at pool index r an output, walking the
// memoized preference list for (port, dx, dy) — prefsFor's list, built once
// per key (tables.go). Bufferless routers must never drop an in-flight
// packet; the priority discipline plus the recoverable emergency tails make
// the assignment total, so running out of ports is a router bug and panics.
func (nw *Network) placeR(a *arb, i int, port noc.Port, r int32, x, y int) {
	p := &nw.Pool[r]
	pr := &nw.tabs.in[port][delta(y, p.Dst.Y, nw.n)*nw.n+delta(x, p.Dst.X, nw.n)]
	for k := 0; k < pr.n; k++ {
		c := pr.c[k]
		if !a.exists[c.out] || a.taken[c.out] {
			continue
		}
		a.taken[c.out] = true
		if c.misroute {
			nw.Tally.MisroutesByInput[port]++
			p.Deflections++
			nw.Hop(i, port, telemetry.HopDeflect, p)
		} else if k > 0 {
			nw.Tally.ExpressDeniedByInput[port]++
			nw.Hop(i, port, telemetry.HopDenied, p)
		}
		if c.deliver {
			nw.DeliverIdx(r)
		} else {
			nw.emitR(c.out, r, i, x, y)
		}
		return
	}
	panic(fmt.Sprintf("fasttrack: router (%d,%d) overcommitted: input %v packet %v->%v has no free output",
		x, y, port, nw.Pool[r].Src, nw.Pool[r].Dst))
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
// placed, walking the memoized injectPrefs list for the router's class. The
// offered packet is copied into the pool only when an output is granted.
// Injection never misroutes: if every acceptable first-hop port is busy the
// client stalls and retries (§IV-C: the PE port has the lowest priority
// because in-flight packets cannot wait). The accepted flag is already false
// here — Begin cleared every flag set last cycle.
func (nw *Network) injectAtR(a *arb, i, x, y int, now int64) {
	off := &nw.Offers[i]
	if !off.OK {
		return
	}

	dx := noc.RingDelta(x, off.P.Dst.X, nw.n)
	dy := noc.RingDelta(y, off.P.Dst.Y, nw.n)

	pr := &nw.tabs.inj[nw.tabs.class[i]][dy*nw.n+dx]
	for k := 0; k < pr.n; k++ {
		c := pr.c[k]
		if !a.exists[c.out] || a.taken[c.out] {
			continue
		}
		a.taken[c.out] = true
		if k > 0 {
			nw.Tally.ExpressDeniedByInput[noc.PortPE]++
			nw.Hop(i, noc.PortPE, telemetry.HopDenied, &off.P)
		}
		if c.deliver {
			p := off.P
			p.Inject = now
			nw.Accept(i)
			nw.Deliver(p)
		} else {
			nw.emitR(c.out, nw.Inject(i, now), i, x, y)
		}
		return
	}
	nw.Refuse(i)
}
