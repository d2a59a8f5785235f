package sim_test

import (
	"fmt"

	"fasttrack/internal/noc"
)

// The paper oracle is the reference every golden suite holds the production
// networks to. It is one straight-line noc.Network for all of the paper's
// bufferless families — Hoplite, FT(N²,D,R) in both router variants with
// optional express pipelines, and Hoplite-Kx — written from paper §IV and
// DESIGN.md §5, §5b and §6, and it shares no code with the production
// routers: each cycle it scans every router of every plane in row-major
// order, moves whole packets between full-packet registers, and latches
// every link at the end. Where the paper leaves a choice open, the rule cites
// the DESIGN.md decision it takes.

// oracleSpec parameterizes the oracle.
type oracleSpec struct {
	W, H int
	// D and R are FastTrack's express length and depopulation factor
	// (DESIGN §5 "Topology math"); D == 0 is plain Hoplite, whose routers
	// carry no express ports.
	D, R int
	// Inject selects FTlite(Inject) (paper Fig 9c): a packet picks its lane
	// at the PE port and the two lanes never exchange packets.
	Inject bool
	// Stages is the number of extra registers on every express link
	// (DESIGN §5c ext-pipeline): an express hop then takes 1+Stages cycles.
	Stages int
	// Channels > 1 is Hoplite-Kx: K independent planes behind one client
	// port pair per PE (paper §IV-A).
	Channels int
}

// oracleReg is a full-packet register with a valid bit.
type oracleReg struct {
	p  noc.Packet
	ok bool
}

// oraclePlane is one torus of routers: the input link registers, this
// cycle's output grants, and the express-link pipeline stages, each indexed
// by port and then by router (y*W + x).
type oraclePlane struct {
	in   [noc.NumPorts][]oracleReg
	out  [noc.NumPorts][]oracleReg
	pipe [noc.NumPorts][][]oracleReg // EEx and SEx only; oldest stage first
}

// oracle is the reference network, a one-cycle noc.Network. Build with
// newOracle.
type oracle struct {
	s      oracleSpec
	planes []oraclePlane

	offers []oracleReg
	// channel[pe] is the plane PE pe offers to; a stalled client moves to the
	// next plane (DESIGN §5b "Multi-channel fairness": rotating on stall).
	channel   []int
	accepted  []bool
	exitBusy  []bool // an earlier plane delivered to this client this cycle
	delivered []noc.Packet
	inFlight  int
	counters  noc.Counters
}

// newOracle builds the oracle for s behind latch, the standing-offer port
// sim.Run drives.
func newOracle(s oracleSpec) noc.Standing {
	if s.Channels < 1 {
		s.Channels = 1
	}
	n := s.W * s.H
	o := &oracle{
		s:        s,
		planes:   make([]oraclePlane, s.Channels),
		offers:   make([]oracleReg, n),
		channel:  make([]int, n),
		accepted: make([]bool, n),
		exitBusy: make([]bool, n),
	}
	for c := range o.planes {
		pl := &o.planes[c]
		for p := range pl.in {
			pl.in[p] = make([]oracleReg, n)
			pl.out[p] = make([]oracleReg, n)
		}
		for _, p := range []noc.Port{noc.PortEEx, noc.PortSEx} {
			pl.pipe[p] = make([][]oracleReg, n)
			for i := range pl.pipe[p] {
				pl.pipe[p][i] = make([]oracleReg, s.Stages)
			}
		}
	}
	return latch(o)
}

func (o *oracle) Width() int                 { return o.s.W }
func (o *oracle) Height() int                { return o.s.H }
func (o *oracle) NumPEs() int                { return o.s.W * o.s.H }
func (o *oracle) Offer(pe int, p noc.Packet) { o.offers[pe] = oracleReg{p: p, ok: true} }
func (o *oracle) Accepted(pe int) bool       { return o.accepted[pe] }
func (o *oracle) Delivered() []noc.Packet    { return o.delivered }
func (o *oracle) InFlight() int              { return o.inFlight }
func (o *oracle) Counters() *noc.Counters    { return &o.counters }

// Step runs one cycle. Hoplite-Kx services its planes in an order that
// rotates with the cycle number (now % K), so a delivery in an earlier plane
// closes the client port to the later ones; an offer that was not accepted
// is forgotten and its client tries the next plane next time.
func (o *oracle) Step(now int64) {
	o.delivered = o.delivered[:0]
	clear(o.accepted)
	clear(o.exitBusy)
	k := len(o.planes)
	for j := 0; j < k; j++ {
		c := (int(now%int64(k)) + j) % k
		pl := &o.planes[c]
		before := len(o.delivered)
		for y := 0; y < o.s.H; y++ {
			for x := 0; x < o.s.W; x++ {
				r := oracleRouter{o: o, pl: pl, x: x, y: y, i: y*o.s.W + x}
				r.route(c, now)
			}
		}
		o.latch(pl)
		for _, p := range o.delivered[before:] {
			o.exitBusy[noc.PEIndex(p.Dst, o.s.W)] = true
		}
	}
	for pe := range o.offers {
		if o.offers[pe].ok {
			o.channel[pe] = (o.channel[pe] + 1) % k
			o.offers[pe] = oracleReg{}
		}
	}
}

// latch moves every grant onto the downstream input register: short links
// reach the next router, express links the router D away, through Stages
// pipeline registers (DESIGN §5 "Cycle model").
func (o *oracle) latch(pl *oraclePlane) {
	w, h, d := o.s.W, o.s.H, o.s.D
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			pl.in[noc.PortWSh][y*w+(x+1)%w] = pl.out[noc.PortESh][i]
			pl.in[noc.PortNSh][((y+1)%h)*w+x] = pl.out[noc.PortSSh][i]
			if d > 0 {
				pl.in[noc.PortWEx][y*w+(x+d)%w] = shiftStages(pl.pipe[noc.PortEEx][i], pl.out[noc.PortEEx][i])
				pl.in[noc.PortNEx][((y+d)%h)*w+x] = shiftStages(pl.pipe[noc.PortSEx][i], pl.out[noc.PortSEx][i])
			}
		}
	}
	for p := range pl.out {
		clear(pl.out[p])
	}
}

// shiftStages pushes in onto an express pipeline and returns what leaves it.
func shiftStages(stages []oracleReg, in oracleReg) oracleReg {
	if len(stages) == 0 {
		return in
	}
	out := stages[0]
	copy(stages, stages[1:])
	stages[len(stages)-1] = in
	return out
}

// oracleRouter is one router's arbitration for one cycle.
type oracleRouter struct {
	o     *oracle
	pl    *oraclePlane
	x, y  int
	i     int
	taken [noc.NumPorts]bool
}

// route arbitrates the router in the paper's static priority order,
// WEx > NEx > WSh > NSh > PE (§IV-C; DESIGN §5 "Priorities"): express
// traffic preempts short, X-ring traffic preempts Y-ring, and the client
// only gets a port no in-flight packet wanted.
func (r *oracleRouter) route(plane int, now int64) {
	for _, in := range [...]noc.Port{noc.PortWEx, noc.PortNEx, noc.PortWSh, noc.PortNSh} {
		if reg := &r.pl.in[in][r.i]; reg.ok {
			r.place(in, reg.p)
			*reg = oracleReg{}
		}
	}
	if r.o.offers[r.i].ok && r.o.channel[r.i] == plane {
		r.inject(now)
	}
}

// has reports whether the router carries output out: express entry points
// sit at coordinates ≡ 0 (mod R) in their dimension (DESIGN §5 "Topology
// math").
func (r *oracleRouter) has(out noc.Port) bool {
	switch out {
	case noc.PortEEx:
		return r.o.s.D > 0 && r.x%r.o.s.R == 0
	case noc.PortSEx:
		return r.o.s.D > 0 && r.y%r.o.s.R == 0
	}
	return true
}

// eligible is the express-entry predicate Δ ≥ D ∧ Δ ≡ 0 (mod D): the ride
// ends exactly at the turn or exit (DESIGN §5 "Routing invariant").
func (r *oracleRouter) eligible(delta int) bool {
	d := r.o.s.D
	return d > 0 && delta >= d && delta%d == 0
}

// choice is one output an input may be granted; a tap hands the packet to
// the client through that output's driver instead of the downstream link.
type choice struct {
	out noc.Port
	tap bool
}

// free reports whether c is available: the output exists and is not yet
// granted, and for a tap no earlier plane has delivered to the client this
// cycle (Hoplite-Kx: one delivery per client per cycle; a channel whose
// packet finds the port busy must deflect it, DESIGN §5b).
func (r *oracleRouter) free(c choice) bool {
	return r.has(c.out) && !r.taken[c.out] && !(c.tap && r.o.exitBusy[r.i])
}

// lanes filters a candidate list for the input's lane: FTlite(Inject)
// packets never change between the short and the express lane (Fig 9c).
func (r *oracleRouter) lanes(in noc.Port, cs []choice) []choice {
	if !r.o.s.Inject {
		return cs
	}
	kept := cs[:0]
	for _, c := range cs {
		if c.out.IsExpress() == in.IsExpress() {
			kept = append(kept, c)
		}
	}
	return kept
}

// place assigns an in-flight packet an output. A bufferless router must,
// every cycle, so the candidates run from the productive (dimension-ordered)
// ones through the §6 deflection repertoire to an emergency tail over every
// lane; running out of outputs would be a router bug.
func (r *oracleRouter) place(in noc.Port, p noc.Packet) {
	s := r.o.s
	dx, dy := noc.RingDelta(r.x, p.Dst.X, s.W), noc.RingDelta(r.y, p.Dst.Y, s.H)
	express := in.IsExpress()

	// Productive outputs, most preferred first (DESIGN §5). A packet bound
	// south or for the exit may, if they are all taken, be deflected by the
	// §6 repertoire below.
	var prod []choice
	southward := dx == 0
	switch {
	case dx == 0 && dy == 0:
		// The exit shares the SSh driver, one delivery per router per cycle;
		// the Inject express lane taps its own SEx driver instead (DESIGN §5b
		// "Shared exit").
		if s.Inject && express {
			prod = []choice{{noc.PortSEx, true}}
		} else {
			prod = []choice{{noc.PortSSh, true}}
		}
	default:
		// X first, then Y. An express packet keeps to the express link of
		// its own dimension while it stays aligned; it drops to the short
		// link only at a turn (WEx→SSh, and a misrouted NEx resuming X) or
		// when it is misaligned. A short packet may upgrade onto an eligible
		// express link — FT(Full) only, which the lane filter enforces.
		exOut, shOut, delta, sameDim := noc.PortEEx, noc.PortESh, dx, in == noc.PortWSh || in == noc.PortWEx
		if southward {
			exOut, shOut, delta, sameDim = noc.PortSEx, noc.PortSSh, dy, in == noc.PortNSh || in == noc.PortNEx
		}
		// KNOWN DIVERGENCE (ROADMAP): an in-flight packet is offered the
		// express output even where the router has none (a depopulated
		// FT(N²,D,R>1)), so taking the short link there counts an express
		// denial. DESIGN §5b counts a denial only when the packet wanted an
		// express resource, and the PE port (inject, below) asks only for
		// the express outputs its router carries; the production routers
		// count the in-flight case anyway, and the oracle keeps their
		// counts until that is fixed with a sim.Version bump.
		if r.eligible(delta) {
			prod = append(prod, choice{exOut, false})
		}
		if popOff := express && sameDim && !r.eligible(delta); popOff || !express || !sameDim {
			prod = append(prod, choice{shOut, false})
			// A misaligned express packet is deflection debris already: it
			// pops off to the short link in the same direction (DESIGN §5b
			// "Misaligned pop-off"), and denied that, it goes straight to the
			// emergency tail.
			southward = southward && !popOff
		}
	}
	for k, c := range r.lanes(in, prod) {
		if r.free(c) {
			if k > 0 {
				// Wanted an express resource (or the express exit) and got
				// the short one: an express denial, not a misroute (DESIGN
				// §5b "Counters").
				r.o.counters.ExpressDeniedByInput[in]++
			}
			r.grant(c, p)
			return
		}
	}

	// Misroutes. §6: a packet denied its turn, its exit or its Y hop is
	// deflected east — onto the express ring when the ring closes on
	// multiples of D (D | N), so it comes back around to this column as a
	// top-priority WEx, else onto the short ring (§IV-D: deflected N traffic
	// may take either E port; deflected WSh may upgrade to EEx). Then the
	// emergency tail, any lane in a fixed order: a misaligned express
	// packet pops off later and a misrouted one resumes DOR (DESIGN §5b
	// "Preference-list arbitration").
	var deflect []choice
	if southward {
		if s.D > 0 && s.W%s.D == 0 {
			deflect = append(deflect, choice{noc.PortEEx, false})
		}
		deflect = append(deflect, choice{noc.PortESh, false})
	}
	deflect = append(deflect, choice{noc.PortESh, false}, choice{noc.PortEEx, false},
		choice{noc.PortSSh, false}, choice{noc.PortSEx, false})
	for _, c := range r.lanes(in, deflect) {
		if r.free(c) {
			p.Deflections++
			r.o.counters.MisroutesByInput[in]++
			r.grant(c, p)
			return
		}
	}
	panic(fmt.Sprintf("oracle: router (%d,%d) has no output for %v packet %v->%v", r.x, r.y, in, p.Src, p.Dst))
}

// inject offers the client's packet the outputs left over (§IV-C: the PE
// port has the lowest priority). Injection never misroutes: if no acceptable
// first hop is free the client stalls.
func (r *oracleRouter) inject(now int64) {
	s := r.o.s
	p := r.o.offers[r.i].p
	dx, dy := noc.RingDelta(r.x, p.Dst.X, s.W), noc.RingDelta(r.y, p.Dst.Y, s.H)
	exOut, shOut := noc.PortEEx, noc.PortESh
	if dx == 0 {
		exOut, shOut = noc.PortSEx, noc.PortSSh
	}
	var prod []choice
	switch {
	case dx == 0 && dy == 0:
		// Self-addressed: straight through the exit.
		prod = []choice{{noc.PortSSh, true}}
	case s.Inject:
		// The lane is chosen here for the whole flight, so the express lane
		// is taken only if every leg stays inside it: each remaining offset
		// is zero or eligible, the X ride starts on an X entry point, and the
		// turn, the Y ride and the SEx exit tap share this row's residue
		// mod R (R | D). Denied the express lane, the packet commits to the
		// short one.
		whole := (dx == 0 || r.eligible(dx) && r.has(noc.PortEEx)) &&
			(dy == 0 || r.eligible(dy)) && r.has(noc.PortSEx)
		if whole {
			prod = append(prod, choice{exOut, false})
		}
		prod = append(prod, choice{shOut, false})
	default:
		delta := dx
		if dx == 0 {
			delta = dy
		}
		if r.has(exOut) && r.eligible(delta) {
			prod = append(prod, choice{exOut, false})
		}
		prod = append(prod, choice{shOut, false})
	}
	for k, c := range prod {
		if r.free(c) {
			if k > 0 {
				r.o.counters.ExpressDeniedByInput[noc.PortPE]++
			}
			p.Inject = now
			r.o.offers[r.i] = oracleReg{}
			r.o.accepted[r.i] = true
			r.o.inFlight++
			r.grant(c, p)
			return
		}
	}
	r.o.counters.InjectionStalls++
}

// grant takes output c.out for p: a tap delivers it to the client, any
// other output stages it for the latch and counts the link traversal.
func (r *oracleRouter) grant(c choice, p noc.Packet) {
	r.taken[c.out] = true
	if c.tap {
		r.o.inFlight--
		r.o.counters.Delivered++
		r.o.delivered = append(r.o.delivered, p)
		return
	}
	if c.out.IsExpress() {
		p.ExpressHops++
		r.o.counters.ExpressTraversals++
	} else {
		p.ShortHops++
		r.o.counters.ShortTraversals++
	}
	r.pl.out[c.out][r.i] = oracleReg{p: p, ok: true}
}
