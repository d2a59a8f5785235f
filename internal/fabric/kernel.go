// Package fabric is the sparse torus kernel shared by the bufferless router
// families (hoplite, fasttrack, and multichannel through hoplite). It owns
// everything about a cycle that is not a routing decision: the
// double-buffered link-register planes, the packet pool, the occupancy
// bitset that makes Step visit only active routers, client offers and their
// accepted flags, the event counters and delivery list, and the Step loop. A
// family embeds a Kernel and plugs in two hooks: its arbiter, called once per
// active router per cycle, and an optional post-route pass for state that
// must advance even at routers nothing was routed through (FastTrack's
// express-link pipelines).
//
// The buffered mesh (internal/buffered) does not ride this kernel: its state
// is FIFOs and credits, not single link registers, and its routers hold
// packets across cycles.
package fabric

import (
	"math/bits"

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

// Router is a family's arbiter. Route arbitrates router i = (x, y) for cycle
// now: consume the inputs in Cur, latch grants into Next (marking the
// downstream router), and resolve the offer. (An interface rather than a func
// field: a bound method value costs a second call through its wrapper on
// every active router.)
type Router interface {
	Route(sh *Shard, i, x, y int, now int64)
}

// PostFunc runs after routing for every router that routed this cycle or
// asked to be kept alive, and reports whether it must run again next cycle
// even if nothing is routed there.
type PostFunc func(sh *Shard, i int) (keepAlive bool)

// Shard is the arbiter's view of the cycle being stepped: the activity marks
// for the next cycle, the event counters, the in-flight population and the
// observer. A kernel has exactly one.
type Shard struct {
	// next collects activity marks for the following cycle; Step swaps it
	// in as the working set.
	next []uint64

	// Counters, InFlight, Obs and Now are the arbiter's working set. Obs
	// receives the router events of the current cycle and is nil when
	// telemetry is off; every emission site guards it with a single nil
	// check.
	Counters noc.Counters
	InFlight int
	Obs      telemetry.Observer
	Now      int64

	delivered   []noc.Packet
	acceptedPEs []int
}

// Mark queues router i for routing on the next cycle.
func (sh *Shard) Mark(i int) { sh.next[i>>6] |= 1 << (uint(i) & 63) }

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

	sh Shard

	// curBits is the occupancy set the current cycle iterates: routers with
	// a latched input or a pending offer. It double-buffers sh.next.
	curBits []uint64
	// keep marks routers whose PostFunc asked to run again; nil without a
	// post hook.
	keep []uint64

	obs telemetry.Observer

	router Router
	post   PostFunc
}

// Init builds the idle kernel state for spec.
func (k *Kernel) Init(spec Spec, router Router, post PostFunc) {
	n := spec.W * spec.H
	words := (n + 63) / 64
	*k = Kernel{
		W: spec.W, H: spec.H,
		Pool:     make([]noc.Packet, PoolBound(spec.Planes, spec.Stages, n)),
		Offers:   make([]Slot, n),
		accepted: make([]bool, n),
		sh:       Shard{next: make([]uint64, words)},
		curBits:  make([]uint64, words),
		router:   router, post: post,
	}
	if post != nil {
		k.keep = make([]uint64, words)
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
// router events of every cycle Step drives.
func (k *Kernel) SetObserver(o telemetry.Observer) { k.obs = o }

// Width returns the number of router columns.
func (k *Kernel) Width() int { return k.W }

// Height returns the number of router rows.
func (k *Kernel) Height() int { return k.H }

// NumPEs returns the client count.
func (k *Kernel) NumPEs() int { return k.W * k.H }

// Offer presents p for injection at PE pe this cycle.
func (k *Kernel) Offer(pe int, p noc.Packet) { k.offer(pe, Slot{P: p, OK: true}) }

// Hold presents p as a standing offer, the hardware's valid register: a
// refusal leaves it latched and re-marks its router, so the arbiter sees it
// again every cycle with no further call, until it is accepted or replaced
// by another Offer or Hold at pe.
func (k *Kernel) Hold(pe int, p noc.Packet) { k.offer(pe, Slot{P: p, OK: true, Held: true}) }

func (k *Kernel) offer(pe int, s Slot) {
	k.Offers[pe] = s
	k.sh.Mark(pe)
}

// Accepted reports whether the offer at pe was injected in the last cycle.
func (k *Kernel) Accepted(pe int) bool { return k.accepted[pe] }

// Delivered returns packets delivered in the last cycle; the slice is reused.
func (k *Kernel) Delivered() []noc.Packet { return k.sh.delivered }

// InFlight returns the number of packets inside the network.
func (k *Kernel) InFlight() int { return k.sh.InFlight }

// Counters returns the network-wide event counters.
func (k *Kernel) Counters() *noc.Counters { return &k.sh.Counters }

// Step advances the network one cycle: the pending activity marks become the
// working set, every active router routes its inputs in ascending router
// index — the order delivery lists, event streams, and with them every
// downstream floating-point accumulation depend on — the post hook runs, and
// the links latch (the consumed Cur side is all -1 again, so it becomes the
// next write side).
func (k *Kernel) Step(now int64) {
	sh := &k.sh
	k.curBits, sh.next = sh.next, k.curBits
	clear(sh.next)
	// Stamp the cycle, and retract what the last one reported.
	sh.Now, sh.Obs = now, k.obs
	sh.delivered = sh.delivered[:0]
	for _, pe := range sh.acceptedPEs {
		k.accepted[pe] = false
	}
	sh.acceptedPEs = sh.acceptedPEs[:0]
	w, router := k.W, k.router
	for wd, b := range k.curBits {
		for ; b != 0; b &= b - 1 {
			i := wd<<6 + bits.TrailingZeros64(b)
			router.Route(sh, i, i%w, i/w, now)
		}
	}
	if k.post != nil {
		for wd, b := range k.curBits {
			for b |= k.keep[wd]; b != 0; b &= b - 1 {
				bit := b & -b
				if k.post(sh, wd<<6+bits.TrailingZeros64(b)) {
					k.keep[wd] |= bit
				} else {
					k.keep[wd] &^= bit
				}
			}
		}
	}
	k.Cur, k.Next = k.Next, k.Cur
}

// Accept records that PE i's offer entered the network this cycle, and
// retires the offer register (its packet stays readable for Inject).
func (k *Kernel) Accept(sh *Shard, i int) {
	sh.InFlight++
	k.Offers[i].OK = false
	k.accepted[i] = true
	sh.acceptedPEs = append(sh.acceptedPEs, i)
}

// Refuse records that PE i's offer found no free output this cycle (§IV-C:
// the client stalls). A one-cycle offer is forgotten; a standing one stays
// latched, and marking its router keeps it in the working set.
func (k *Kernel) Refuse(sh *Shard, i int) {
	sh.Counters.InjectionStalls++
	if off := &k.Offers[i]; off.Held {
		sh.Mark(i)
	} else {
		off.OK = false
	}
}

// Inject accepts PE i's offer, copies it into the pool stamped with the
// injection cycle, and returns its pool index. Freed slots are reused LIFO,
// so the assignment is deterministic.
func (k *Kernel) Inject(sh *Shard, i int, now int64) int32 {
	k.Accept(sh, i)
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
func (k *Kernel) Deliver(sh *Shard, p noc.Packet) {
	sh.InFlight--
	sh.Counters.Delivered++
	sh.delivered = append(sh.delivered, p)
}

// DeliverIdx delivers the pooled packet at r and recycles the slot.
func (k *Kernel) DeliverIdx(sh *Shard, r int32) {
	k.Deliver(sh, k.Pool[r])
	k.free = append(k.free, r)
}
