// Package fabric is the sparse torus state shared by the bufferless router
// families (hoplite, fasttrack, and multichannel through hoplite). It owns
// everything about a cycle that is not a routing decision: the
// double-buffered link-register planes, the packet pool, the occupancy
// bitset that lets a cycle visit only active routers, client offers and
// their accepted flags, the event counters and delivery list. It calls
// nothing back: a family embeds a Kernel, and its Step opens the cycle with
// Begin, walks the returned working set calling its own arbiter directly,
// runs any pass of its own (FastTrack's express-link pipelines), and closes
// the cycle with End.
//
// The buffered mesh (internal/buffered) does not ride this kernel: its state
// is FIFOs and credits, not single link registers, and its routers hold
// packets across cycles.
package fabric

import (
	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
)

// MaxPlanes is the largest number of input link-register planes a router
// family may declare (FastTrack: W/N × short/express).
const MaxPlanes = 4

// Slot is a client offer register: a full packet with a valid bit. Held
// marks an offer that keeps OK across a refusal (see Hold).
type Slot struct {
	P    noc.Packet
	OK   bool
	Held bool
}

// Spec is the geometry a Kernel is built for.
type Spec struct {
	W, H int
	// Planes is the number of input link registers per router (2 for
	// Hoplite: W and N; 4 for FastTrack, indexed by the input noc.Port).
	Planes int
	// Stages is the number of extra pipeline registers on each of a
	// router's two express links. The family owns those registers; the
	// kernel only accounts for the packets they hold (PoolBound).
	Stages int
}

// PoolBound is the number of packet-pool slots the kernel can ever have
// outstanding: every live packet sits in a link register or a pipeline stage
// at the start of a cycle (planes + 2·stages per router), and during the
// cycle each router adds at most one injection. It sizes the pool.
func PoolBound(planes, stages, routers int) int {
	return (planes+2*stages+1)*routers + 64
}

// Kernel is the shared fabric state; embed it in a family's Network and call
// Init. The exported fields are the arbiter's working set.
type Kernel struct {
	W, H int

	// Cur and Next are the link registers, one plane per router input,
	// indexed by destination-router index (y*W + x). Each register holds an
	// index into Pool (-1 when empty), so a hop moves 4 bytes instead of a
	// packet. They are double buffered: Cur is read (and cleared as it is
	// consumed, so a router that goes idle does not replay stale packets
	// when it reactivates) by the current cycle while Next collects what
	// latches for the next, so a grant writes the downstream register
	// directly with no staging and no latch pass. Every link has exactly
	// one driving router, so a Next element is written at most once per
	// cycle.
	Cur, Next [MaxPlanes][]int32
	// Pool holds every in-flight packet from injection to delivery; slots
	// are handed out from free first, then from [cursor, len(Pool)).
	Pool   []noc.Packet
	free   []int32
	cursor int32
	// Offers is the per-PE injection register; Accept and Refuse clear OK.
	Offers   []Slot
	accepted []bool

	// Tally counts the network's events. Obs receives the router events of
	// the current cycle, each through Hop, and is nil when telemetry is off.
	// Now is the cycle being stepped.
	Tally noc.Counters
	Obs   telemetry.Observer
	Now   int64

	// active is the occupancy set the current cycle walks: routers with a
	// latched input or a pending offer. Mark collects the next cycle's in
	// next; Begin swaps the two.
	active, next []uint64

	inFlight    int
	delivered   []noc.Packet
	acceptedPEs []int
}

// Init builds the idle kernel state for spec.
func (k *Kernel) Init(spec Spec) {
	n := spec.W * spec.H
	words := (n + 63) / 64
	*k = Kernel{
		W: spec.W, H: spec.H,
		Pool:     make([]noc.Packet, PoolBound(spec.Planes, spec.Stages, n)),
		Offers:   make([]Slot, n),
		accepted: make([]bool, n),
		active:   make([]uint64, words),
		next:     make([]uint64, words),
	}
	for p := 0; p < spec.Planes; p++ {
		k.Cur[p], k.Next[p] = make([]int32, n), make([]int32, n)
		Fill(k.Cur[p], -1)
		Fill(k.Next[p], -1)
	}
}

// Fill sets every element of regs to v.
func Fill(regs []int32, v int32) {
	for i := range regs {
		regs[i] = v
	}
}

// SetObserver attaches the network observer (nil detaches): it receives the
// router events of every cycle stepped.
func (k *Kernel) SetObserver(o telemetry.Observer) { k.Obs = o }

// Hop reports a router event of the current cycle to the observer. It is a
// nil check that inlines at every emission site plus an outlined call, so a
// router pays one predictable branch per event when telemetry is off.
func (k *Kernel) Hop(router int, port noc.Port, kind telemetry.HopKind, p *noc.Packet) {
	if k.Obs != nil {
		k.hop(router, port, kind, p)
	}
}

// hop is Hop's outlined half. Without the directive the compiler inlines it
// into Hop, and so the observer's interface dispatch into every emission
// site; outlined, a site carries only the nil check and one direct call.
//
//go:noinline
func (k *Kernel) hop(router int, port noc.Port, kind telemetry.HopKind, p *noc.Packet) {
	k.Obs.OnHop(k.Now, router, port, kind, p)
}

// Width returns the number of router columns.
func (k *Kernel) Width() int { return k.W }

// Height returns the number of router rows.
func (k *Kernel) Height() int { return k.H }

// NumPEs returns the client count.
func (k *Kernel) NumPEs() int { return k.W * k.H }

// Offer presents p for injection at PE pe this cycle.
func (k *Kernel) Offer(pe int, p noc.Packet) { k.offer(pe, Slot{P: p, OK: true}) }

// Hold presents p as a standing offer, the hardware's valid register
// (noc.Standing): a refusal leaves it latched and re-marks its router, so the
// arbiter sees it again every cycle with no further call, until it is
// accepted, replaced by another Offer or Hold at pe, or retracted.
func (k *Kernel) Hold(pe int, p noc.Packet) { k.offer(pe, Slot{P: p, OK: true, Held: true}) }

// Retract withdraws pe's offer. Its router may still hold a mark; visiting a
// router with nothing latched and nothing offered does nothing.
func (k *Kernel) Retract(pe int) { k.Offers[pe].OK = false }

func (k *Kernel) offer(pe int, s Slot) {
	k.Offers[pe] = s
	k.Mark(pe)
}

// Mark queues router i for routing on the next cycle.
func (k *Kernel) Mark(i int) { k.next[i>>6] |= 1 << (uint(i) & 63) }

// Accepted reports whether the offer at pe was injected in the last cycle.
func (k *Kernel) Accepted(pe int) bool { return k.accepted[pe] }

// AcceptedPEs lists the PEs accepted in the last cycle, in ascending router
// order; the slice is reused.
func (k *Kernel) AcceptedPEs() []int { return k.acceptedPEs }

// Delivered returns packets delivered in the last cycle; the slice is reused.
func (k *Kernel) Delivered() []noc.Packet { return k.delivered }

// InFlight returns the number of packets inside the network.
func (k *Kernel) InFlight() int { return k.inFlight }

// Counters returns the network-wide event counters.
func (k *Kernel) Counters() *noc.Counters { return &k.Tally }

// Begin opens cycle now and returns its working set, the pending activity
// marks; it retracts what the last cycle reported. The family routes the set
// in ascending router index — the order delivery lists, event streams, and
// every downstream floating-point sum depend on — then calls End.
func (k *Kernel) Begin(now int64) []uint64 {
	k.active, k.next = k.next, k.active
	clear(k.next)
	k.Now = now
	k.delivered = k.delivered[:0]
	for _, pe := range k.acceptedPEs {
		k.accepted[pe] = false
	}
	k.acceptedPEs = k.acceptedPEs[:0]
	return k.active
}

// End closes the cycle: the links latch (the consumed Cur side is all -1
// again, so it becomes the next write side).
func (k *Kernel) End() { k.Cur, k.Next = k.Next, k.Cur }

// Accept records that PE i's offer entered the network this cycle, and
// retires the offer register (its packet stays readable for Inject).
func (k *Kernel) Accept(i int) {
	k.inFlight++
	k.Offers[i].OK = false
	k.accepted[i] = true
	k.acceptedPEs = append(k.acceptedPEs, i)
}

// Refuse records that PE i's offer found no free output this cycle (§IV-C:
// the client stalls). A one-cycle offer is forgotten; a standing one stays
// latched, and marking its router keeps it in the working set.
func (k *Kernel) Refuse(i int) {
	k.Tally.InjectionStalls++
	if off := &k.Offers[i]; off.Held {
		k.Mark(i)
	} else {
		off.OK = false
	}
}

// Inject accepts PE i's offer, copies it into the pool stamped with the
// injection cycle, and returns its pool index. Freed slots are reused LIFO,
// so the assignment is deterministic.
func (k *Kernel) Inject(i int, now int64) int32 {
	k.Accept(i)
	var r int32
	if n := len(k.free); n > 0 {
		r = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		if int(k.cursor) == len(k.Pool) {
			panic("fabric: packet pool exhausted (PoolBound violated)")
		}
		r = k.cursor
		k.cursor++
	}
	k.Pool[r] = k.Offers[i].P
	k.Pool[r].Inject = now
	return r
}

// Deliver hands p to the client.
func (k *Kernel) Deliver(p noc.Packet) {
	k.inFlight--
	k.Tally.Delivered++
	k.delivered = append(k.delivered, p)
}

// DeliverIdx delivers the pooled packet at r and recycles the slot.
func (k *Kernel) DeliverIdx(r int32) {
	k.Deliver(k.Pool[r])
	k.free = append(k.free, r)
}
