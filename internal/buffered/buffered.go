// Package buffered implements a classic buffered, credit-flow-controlled
// NoC router in the style the paper's Table I/Fig 1 quote for CONNECT and
// Split-Merge: a bidirectional 2-D mesh with an input FIFO per port and
// dimension-ordered XY routing. It exists as a simulated counterpoint to
// the bufferless designs — high packets/cycle, but (per the FPGA cost
// model) many LUTs and a slow clock, which is exactly the Fig 1 tradeoff
// the paper draws.
//
// XY routing on a mesh (no wraparound) with one FIFO per input is
// deadlock-free, so no virtual channels are needed.
package buffered

import (
	"fmt"
	"math/bits"

	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
)

// port indices within a router.
const (
	pN = iota // from/to the north neighbour (y-1)
	pS
	pE
	pW
	pPE // client injection queue
	numPorts
	pExit = numPorts // delivery pseudo-output
)

// Config parameterizes the mesh.
type Config struct {
	// Depth is the input FIFO capacity in packets (default 4).
	Depth int
}

// Network is a W×H buffered bidirectional mesh.
type Network struct {
	w, h  int
	depth int

	// queues[i][p] is the input FIFO of port p at router i.
	queues [][numPorts][]noc.Packet
	// snapshot of queue lengths at cycle start, for credit checks.
	lens [][numPorts]int
	// rr[i][out] is the round-robin pointer per output arbiter.
	rr [][numPorts + 1]uint8

	offers    []slot
	accepted  []bool
	delivered []noc.Packet
	inFlight  int
	counters  noc.Counters

	// Occupancy tracking for the sparse fast path. occ[i] counts buffered
	// packets across all of router i's FIFOs; occBits mirrors occ[i] > 0 so
	// Step can iterate occupied routers in ascending index order (curBits is
	// the per-Step snapshot — packets pushed mid-cycle must not make their
	// router route this cycle, matching the dense scan where such a visit is
	// a credit-gated no-op). dirty lists routers whose queue lengths changed
	// since the last lens snapshot: pops keep lens in step, so only pushes
	// make a router dirty, and only dirty routers are re-snapshotted.
	occ              []int
	occBits, curBits []uint64
	dirty            []int
	inDirty          []bool
	// offeredPEs and acceptedPEs let the sparse path touch only the PEs
	// with an offer or a set accepted flag instead of all N² each cycle.
	offeredPEs, acceptedPEs []int

	// dense selects the reference stepping path; see SetDense.
	dense bool

	// obs, when non-nil, receives telemetry events; now mirrors the current
	// Step's cycle so routeOne (no now parameter) can stamp events.
	obs telemetry.Observer
	now int64
}

// slot is a PE's offer register: held keeps it across a refusal, and listed
// marks it as on offeredPEs (a retracted slot stays listed until Step).
type slot struct {
	p                noc.Packet
	ok, held, listed bool
}

// New builds an idle W×H buffered mesh.
func New(w, h int, cfg Config) (*Network, error) {
	if w < 2 || h < 2 {
		return nil, fmt.Errorf("buffered: dimensions %dx%d too small", w, h)
	}
	if cfg.Depth == 0 {
		cfg.Depth = 4
	}
	if cfg.Depth < 1 {
		return nil, fmt.Errorf("buffered: FIFO depth %d must be positive", cfg.Depth)
	}
	n := w * h
	words := (n + 63) / 64
	return &Network{
		w: w, h: h, depth: cfg.Depth,
		queues:   make([][numPorts][]noc.Packet, n),
		lens:     make([][numPorts]int, n),
		rr:       make([][numPorts + 1]uint8, n),
		offers:   make([]slot, n),
		accepted: make([]bool, n),
		occ:      make([]int, n),
		occBits:  make([]uint64, words),
		curBits:  make([]uint64, words),
		inDirty:  make([]bool, n),
	}, nil
}

// SetDense selects the reference stepping path: snapshot and route all N²
// routers every cycle instead of only occupied ones. The two paths are
// bit-exact, and the golden suites in internal/sim call SetDense(true)
// directly to hold the sparse path to this one. The bufferless families are
// held to a paper-written oracle instead; this FIFO/credit mesh is an
// extension the paper does not specify (DESIGN §5c ext-buffered), so its own
// straight-line path stays its reference. Select before the first Step.
func (nw *Network) SetDense(d bool) { nw.dense = d }

// SetObserver attaches a telemetry observer (nil detaches). The mesh has no
// express plane and bidirectional links: horizontal moves report as
// noc.PortESh and vertical moves as noc.PortSSh, and no deflection events
// occur (buffered routers wait instead of misrouting).
func (nw *Network) SetObserver(o telemetry.Observer) { nw.obs = o }

// Width returns the mesh width.
func (nw *Network) Width() int { return nw.w }

// Height returns the mesh height.
func (nw *Network) Height() int { return nw.h }

// NumPEs returns the client count.
func (nw *Network) NumPEs() int { return nw.w * nw.h }

// Offer presents p for injection at PE pe this cycle.
func (nw *Network) Offer(pe int, p noc.Packet) { nw.present(pe, p, false) }

// Hold presents p as a standing offer at PE pe (noc.Standing): a full
// injection FIFO leaves it in its slot for the next Step.
func (nw *Network) Hold(pe int, p noc.Packet) { nw.present(pe, p, true) }

func (nw *Network) present(pe int, p noc.Packet, held bool) {
	if !nw.offers[pe].listed {
		nw.offeredPEs = append(nw.offeredPEs, pe)
	}
	nw.offers[pe] = slot{p: p, ok: true, held: held, listed: true}
}

// Retract withdraws pe's offer.
func (nw *Network) Retract(pe int) { nw.offers[pe].ok = false }

// Accepted reports whether the offer at pe entered the injection FIFO.
func (nw *Network) Accepted(pe int) bool { return nw.accepted[pe] }

// AcceptedPEs lists the PEs accepted in the last Step; the slice is reused.
func (nw *Network) AcceptedPEs() []int { return nw.acceptedPEs }

// Delivered returns packets delivered in the last Step; the slice is reused.
func (nw *Network) Delivered() []noc.Packet { return nw.delivered }

// InFlight returns the number of packets buffered in the network.
func (nw *Network) InFlight() int { return nw.inFlight }

// Counters returns the network-wide event counters.
func (nw *Network) Counters() *noc.Counters { return &nw.counters }

// desiredOutput implements XY dimension-ordered routing on the mesh.
func (nw *Network) desiredOutput(p noc.Packet, x, y int) int {
	switch {
	case p.Dst.X > x:
		return pE
	case p.Dst.X < x:
		return pW
	case p.Dst.Y > y:
		return pS
	case p.Dst.Y < y:
		return pN
	default:
		return pExit
	}
}

// neighbour returns the router index and input port reached through out.
func (nw *Network) neighbour(x, y, out int) (idx, inPort int) {
	switch out {
	case pE:
		return y*nw.w + x + 1, pW
	case pW:
		return y*nw.w + x - 1, pE
	case pS:
		return (y+1)*nw.w + x, pN
	case pN:
		return (y-1)*nw.w + x, pS
	}
	panic("buffered: bad output")
}

// Step advances the mesh one cycle: every output arbiter moves at most one
// packet, gated by downstream credits computed from cycle-start occupancy.
// Only routers with buffered packets are visited; idle routers cost
// nothing. The visit order is ascending router index — identical to the
// dense path's row-major scan — so delivery order, and with it every
// downstream floating-point accumulation, is bit-exact with SetDense(true).
func (nw *Network) Step(now int64) {
	if nw.dense {
		nw.stepReference(now)
		return
	}
	nw.now = now
	nw.delivered = nw.delivered[:0]
	for _, pe := range nw.acceptedPEs {
		nw.accepted[pe] = false
	}
	nw.acceptedPEs = nw.acceptedPEs[:0]

	// Accept injections into PE FIFOs first (they see last cycle's space).
	// Per-PE injection touches only that PE's own queue, so processing the
	// offered list in arrival order is equivalent to the dense scan.
	kept := nw.offeredPEs[:0]
	for _, pe := range nw.offeredPEs {
		if nw.inject(pe, now) {
			kept = append(kept, pe)
		}
	}
	nw.offeredPEs = kept

	// Refresh the credit snapshot where it went stale. pop keeps lens equal
	// to the live queue length, so only routers that took a push since the
	// last snapshot differ — exactly the dirty list.
	for _, i := range nw.dirty {
		nw.inDirty[i] = false
		for p := 0; p < numPorts; p++ {
			nw.lens[i][p] = len(nw.queues[i][p])
		}
	}
	nw.dirty = nw.dirty[:0]

	// Iterate a snapshot of the occupancy set: packets pushed mid-cycle set
	// occBits but must not make their router route this cycle (in the dense
	// scan such a visit is a lens-gated no-op).
	copy(nw.curBits, nw.occBits)
	for wd, b := range nw.curBits {
		for b != 0 {
			i := wd<<6 + bits.TrailingZeros64(b)
			b &= b - 1
			nw.routeOne(i%nw.w, i/nw.w)
		}
	}
	nw.counters.Delivered += int64(len(nw.delivered))
}

// stepReference is the reference path: scan all offers, snapshot every
// router, route every router.
func (nw *Network) stepReference(now int64) {
	nw.now = now
	nw.delivered = nw.delivered[:0]
	nw.acceptedPEs = nw.acceptedPEs[:0]
	nw.offeredPEs = nw.offeredPEs[:0]

	// Accept injections into PE FIFOs first (they see last cycle's space).
	for pe := range nw.offers {
		nw.accepted[pe] = false
		nw.inject(pe, now)
	}

	// Snapshot occupancy for credit checks: a move this cycle is allowed
	// only into a FIFO that had space at cycle start (conservative, like
	// registered credit counters in hardware).
	for i := range nw.queues {
		nw.inDirty[i] = false
		for p := 0; p < numPorts; p++ {
			nw.lens[i][p] = len(nw.queues[i][p])
		}
	}
	nw.dirty = nw.dirty[:0]

	for y := 0; y < nw.h; y++ {
		for x := 0; x < nw.w; x++ {
			nw.routeOne(x, y)
		}
	}
	nw.counters.Delivered += int64(len(nw.delivered))
}

// inject moves pe's offer into its injection FIFO if there is room, and
// reports whether the offer stays: a refused standing offer keeps its slot.
func (nw *Network) inject(pe int, now int64) (stays bool) {
	off := &nw.offers[pe]
	switch {
	case !off.ok:
	case len(nw.queues[pe][pPE]) < nw.depth:
		p := off.p
		p.Inject = now
		nw.push(pe, pPE, p)
		nw.inFlight++
		nw.accepted[pe] = true
		nw.acceptedPEs = append(nw.acceptedPEs, pe)
	default:
		nw.counters.InjectionStalls++
		if off.held {
			return true
		}
	}
	*off = slot{}
	return false
}

// routeOne runs the output arbiters of router (x, y). Each input port can
// source at most one move per cycle (a FIFO has one read port).
func (nw *Network) routeOne(x, y int) {
	i := y*nw.w + x
	var popped [numPorts]bool
	// For each output, find the first input (round-robin) whose head wants
	// it and whose downstream has credit.
	for out := 0; out <= numPorts; out++ {
		start := int(nw.rr[i][out])
		for k := 0; k < numPorts; k++ {
			in := (start + k) % numPorts
			q := nw.queues[i][in]
			// Consider only packets present at cycle start, one per input.
			if popped[in] || nw.lens[i][in] == 0 || len(q) == 0 {
				continue
			}
			head := q[0]
			if nw.desiredOutput(head, x, y) != out {
				continue
			}
			if out == pExit {
				nw.pop(i, in)
				popped[in] = true
				nw.inFlight--
				nw.delivered = append(nw.delivered, head)
			} else {
				nidx, nport := nw.neighbour(x, y, out)
				if nw.lens[nidx][nport] >= nw.depth {
					break // downstream full; the output idles this cycle
				}
				nw.pop(i, in)
				popped[in] = true
				head.ShortHops++
				nw.counters.ShortTraversals++
				if nw.obs != nil {
					port := noc.PortESh
					if out == pN || out == pS {
						port = noc.PortSSh
					}
					nw.obs.OnHop(nw.now, i, port, telemetry.HopLocal, &head)
				}
				nw.push(nidx, nport, head)
			}
			nw.rr[i][out] = uint8((in + 1) % numPorts)
			break
		}
	}
}

// push appends p to FIFO (i, in) and keeps the occupancy set and the dirty
// list in step. lens deliberately stays stale (it is the cycle-start
// snapshot); the next Step re-snapshots this router via the dirty list.
func (nw *Network) push(i, in int, p noc.Packet) {
	nw.queues[i][in] = append(nw.queues[i][in], p)
	if nw.occ[i] == 0 {
		nw.occBits[i>>6] |= 1 << (uint(i) & 63)
	}
	nw.occ[i]++
	if !nw.inDirty[i] {
		nw.inDirty[i] = true
		nw.dirty = append(nw.dirty, i)
	}
}

func (nw *Network) pop(i, in int) {
	q := nw.queues[i][in]
	copy(q, q[1:])
	nw.queues[i][in] = q[:len(q)-1]
	nw.lens[i][in]--
	nw.occ[i]--
	if nw.occ[i] == 0 {
		nw.occBits[i>>6] &^= 1 << (uint(i) & 63)
	}
}
