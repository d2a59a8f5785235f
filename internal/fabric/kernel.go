// Package fabric is the sparse torus kernel shared by the bufferless router
// families (hoplite, fasttrack, and multichannel through hoplite). It owns
// everything about a cycle that is not a routing decision: the
// double-buffered link-register planes, the packet pool, the occupancy
// bitset that makes Step visit only active routers, client offers and their
// accepted flags, per-shard counters and delivery lists with their merged
// views, row-band sharding, and the Step / BeginCycle / StepShard / EndCycle
// loops. A family embeds a Kernel and plugs in two hooks: its arbiter, called
// once per active router per cycle, and an optional post-route pass for state
// that must advance even at routers nothing was routed through (FastTrack's
// express-link pipelines).
//
// The buffered mesh (internal/buffered) does not ride this kernel: its state
// is FIFOs and credits, not single link registers, and its routers hold
// packets across cycles.
package fabric

import (
	"fmt"
	"math/bits"

	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
)

// MaxPlanes is the largest number of input link-register planes a router
// family may declare (FastTrack: W/N × short/express).
const MaxPlanes = 4

// Slot is a full-packet register with a valid bit: the client offer
// registers, and the link registers of the families' dense reference paths.
// Held marks an offer register that keeps OK across a refusal (see Hold).
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
	// kernel only accounts for the packets they hold (PoolBound) and for
	// their share of a batch's slabs (NewBatch).
	Stages int
}

// PoolBound is the number of packet-pool slots one allocator can ever have
// outstanding: every live packet sits in a link register or a pipeline stage
// at the start of a cycle (planes + 2·stages per router), and during the
// cycle each router adds at most one injection while slots freed by delivery
// are withheld until EndCycle. It sizes the single-shard pool, each shard's
// arena, and each instance's share of a batch's packet slab.
func PoolBound(planes, stages, routers int) int {
	return (planes+2*stages+1)*routers + 64
}

// Router is a family's arbiter. Route arbitrates router i = (x, y) for cycle
// now: consume the inputs in Cur, latch grants into Next (marking the
// downstream router), and resolve the offer. It runs on the goroutine
// stepping sh and may write only sh, Pool entries, and Next elements router
// i drives. (An interface rather than a func field: a bound method value
// costs a second call through its wrapper on every active router.)
type Router interface {
	Route(sh *Shard, i, x, y int, now int64)
}

// PostFunc runs after routing for every router that routed this cycle or
// asked to be kept alive, and reports whether it must run again next cycle
// even if nothing is routed there.
type PostFunc func(sh *Shard, i int) (keepAlive bool)

// Shard is one row band's slice of the mutable aggregate state. A kernel has
// a single shard covering the whole fabric until ConfigureShards splits it,
// so sequential stepping is the one-shard case of the same code. A StepShard
// worker touches only its own Shard plus link-register elements it is the
// unique driver of, which keeps the parallel step free of shared mutable
// words.
type Shard struct {
	lo, hi int // router index range [lo, hi)

	// Masked word range of [lo, hi) for iterating the occupancy set.
	loWord, hiWord int
	loMask, hiMask uint64

	// next collects activity marks for the following cycle. It is full
	// fabric sized: routing in this shard may wake routers across the shard
	// boundary, and those marks land here (the marker's own array) rather
	// than in the target shard's, so no two workers ever share a word.
	next []uint64
	// keep marks routers in this shard whose PostFunc asked to run again;
	// nil without a post hook.
	keep []uint64

	// Counters, InFlight (a per-shard delta: it can go negative, the sum is
	// real), Obs and Now are the arbiter's view of the shard. Obs receives
	// the router events of the current cycle and is nil when telemetry is
	// off; every emission site guards it with a single nil check.
	Counters noc.Counters
	InFlight int
	Obs      telemetry.Observer
	Now      int64

	delivered   []noc.Packet
	acceptedPEs []int

	// The shard allocates pool slots from its free list first, then from
	// its arena [cursor, limit). freed stages slots recycled during a
	// sharded cycle; EndCycle returns each to the arena owner's free list.
	free, freed   []int32
	cursor, limit int32
}

// Mark queues router i for routing on the next cycle.
func (sh *Shard) Mark(i int) { sh.next[i>>6] |= 1 << (uint(i) & 63) }

// clip masks occupancy word wd down to the shard's router range.
func (sh *Shard) clip(wd int, b uint64) uint64 {
	if wd == sh.loWord {
		b &= sh.loMask
	}
	if wd == sh.hiWord-1 {
		b &= sh.hiMask
	}
	return b
}

// Kernel is the shared fabric state; embed it in a family's Network and call
// Init. The exported fields are the arbiter's working set.
type Kernel struct {
	W, H   int
	planes int
	bound  int32 // PoolBound: the pool slots each shard's arena holds

	// Cur and Next are the link registers, one plane per router input,
	// indexed by destination-router index (y*W + x). Each register holds an
	// index into Pool (-1 when empty), so a hop moves 4 bytes instead of a
	// packet. They are double buffered: Cur is read (and cleared as it is
	// consumed, so a router that goes idle does not replay stale packets
	// when it reactivates) by the current cycle while Next collects what
	// latches for the next, so a grant writes the downstream register
	// directly with no staging and no latch pass. Every link has exactly
	// one driving router, so a Next element is written at most once per
	// cycle — the single-driver rule that makes sharded stepping race-free
	// at the boundary rows.
	Cur, Next [MaxPlanes][]int32
	// Pool holds every in-flight packet from injection to delivery.
	Pool []noc.Packet
	// Offers is the per-PE injection register; Accept and Refuse clear OK.
	Offers   []Slot
	accepted []bool

	sh      []Shard
	shardOf []int32 // router → owning shard; nil when single-shard

	// curBits is the occupancy set the current cycle iterates: routers with
	// a latched input or a pending offer. The shards' next arrays
	// double-buffer it.
	curBits []uint64

	// Merged views for the sharded accessors; unused when single-shard.
	mergedDelivered []noc.Packet
	mergedCounters  noc.Counters

	obs      telemetry.Observer
	shardObs []telemetry.Observer

	router Router
	post   PostFunc
}

// Init builds the idle kernel state for spec. When ar is non-nil the arrays
// are carved from its batch-major slabs instead of allocated individually.
func (k *Kernel) Init(spec Spec, ar *Arena, router Router, post PostFunc) {
	if ar == nil {
		ar = new(Arena)
	}
	n := spec.W * spec.H
	*k = Kernel{
		W: spec.W, H: spec.H, planes: spec.Planes,
		bound:    int32(PoolBound(spec.Planes, spec.Stages, n)),
		Offers:   carve(&ar.slots, n),
		accepted: carve(&ar.bools, n),
		curBits:  carve(&ar.words, (n+63)/64),
		router:   router, post: post,
	}
	for p := 0; p < spec.Planes; p++ {
		k.Cur[p], k.Next[p] = ar.Int32s(n), ar.Int32s(n)
		Fill(k.Cur[p], -1)
		Fill(k.Next[p], -1)
	}
	k.Pool = carve(&ar.packets, int(k.bound))
	k.partition(1, ar)
}

// Fill sets every element of regs to v.
func Fill(regs []int32, v int32) {
	for i := range regs {
		regs[i] = v
	}
}

// partition lays s row-band shards over the fabric: shard j owns rows
// [j*H/s, (j+1)*H/s), a contiguous router range, so concatenating per-shard
// output in ascending j equals a row-major scan. Each shard gets a private
// PoolBound-sized arena of the pool. ar is non-nil only under Init.
func (k *Kernel) partition(s int, ar *Arena) {
	if ar == nil {
		ar = new(Arena)
	}
	n := k.W * k.H
	words := (n + 63) / 64
	k.sh = make([]Shard, s)
	k.shardOf, k.shardObs = nil, nil
	if s > 1 {
		k.shardOf = make([]int32, n)
	}
	if need := s * int(k.bound); need <= cap(k.Pool) {
		k.Pool = k.Pool[:need]
	} else {
		k.Pool = make([]noc.Packet, need)
	}
	for j := range k.sh {
		sh := &k.sh[j]
		sh.lo, sh.hi = (j*k.H/s)*k.W, ((j+1)*k.H/s)*k.W
		sh.loWord, sh.hiWord = sh.lo>>6, (sh.hi+63)>>6
		sh.loMask = ^uint64(0) << (uint(sh.lo) & 63)
		sh.hiMask = ^uint64(0)
		if r := uint(sh.hi) & 63; r != 0 {
			sh.hiMask = 1<<r - 1
		}
		sh.next = carve(&ar.words, words)
		if k.post != nil {
			sh.keep = carve(&ar.words, words)
		}
		sh.cursor = int32(j) * k.bound
		sh.limit = sh.cursor + k.bound
		if k.shardOf != nil {
			for i := sh.lo; i < sh.hi; i++ {
				k.shardOf[i] = int32(j)
			}
		}
	}
}

// Reset restores the idle state Init leaves, keeping every backing array so
// a recycled instance re-runs a job without reallocating. A run on a Reset
// kernel is bit-identical to a run on a fresh one: only slice capacity
// survives, which routing never observes. A sharded kernel drops back to one
// shard.
func (k *Kernel) Reset() {
	for p := 0; p < k.planes; p++ {
		Fill(k.Cur[p], -1)
		Fill(k.Next[p], -1)
	}
	clear(k.Offers)
	clear(k.accepted)
	clear(k.curBits)
	k.obs = nil
	k.mergedDelivered = k.mergedDelivered[:0]
	if len(k.sh) != 1 {
		k.partition(1, nil)
		return
	}
	k.shardObs = nil
	s0 := &k.sh[0]
	clear(s0.next)
	clear(s0.keep)
	s0.Counters, s0.InFlight, s0.Obs, s0.Now = noc.Counters{}, 0, nil, 0
	s0.delivered, s0.acceptedPEs = s0.delivered[:0], s0.acceptedPEs[:0]
	s0.free, s0.freed, s0.cursor = s0.free[:0], s0.freed[:0], 0
}

// ConfigureShards implements noc.ShardedNetwork: partition the fabric into s
// row-band shards, clamped to the row count; 1 restores the single-shard
// layout. The fabric must be idle.
func (k *Kernel) ConfigureShards(s int) (int, error) {
	if s < 1 {
		return 0, fmt.Errorf("fabric: shard count %d < 1", s)
	}
	if n := k.InFlight(); n != 0 {
		return 0, fmt.Errorf("fabric: cannot reconfigure shards with %d packets in flight", n)
	}
	k.partition(min(s, k.H), nil)
	return len(k.sh), nil
}

// ShardRange implements noc.ShardedNetwork.
func (k *Kernel) ShardRange(j int) (lo, hi int) { return k.sh[j].lo, k.sh[j].hi }

// SetObserver attaches the network observer (nil detaches): it receives the
// router events of every cycle Step drives, unless per-shard observers are
// installed.
func (k *Kernel) SetObserver(o telemetry.Observer) { k.obs = o }

// SetShardObservers implements telemetry.ShardObservable: obs[j] receives the
// router events of shard j, from StepShard and from Step alike. nil removes
// them, as does repartitioning.
func (k *Kernel) SetShardObservers(obs []telemetry.Observer) { k.shardObs = obs }

// Width returns the number of router columns.
func (k *Kernel) Width() int { return k.W }

// Height returns the number of router rows.
func (k *Kernel) Height() int { return k.H }

// NumPEs returns the client count.
func (k *Kernel) NumPEs() int { return k.W * k.H }

// Offer presents p for injection at PE pe this cycle. Concurrent offers are
// allowed for PEs owned by different shards: the activity mark lands in the
// owning shard's next array and the offer register itself is per-PE.
func (k *Kernel) Offer(pe int, p noc.Packet) { k.offer(pe, Slot{P: p, OK: true}) }

// Hold presents p as a standing offer, the hardware's valid register: a
// refusal leaves it latched and re-marks its router, so the arbiter sees it
// again every cycle with no further call, until it is accepted, replaced by
// another Offer or Hold at pe, or Reset. Concurrency is Offer's.
func (k *Kernel) Hold(pe int, p noc.Packet) { k.offer(pe, Slot{P: p, OK: true, Held: true}) }

func (k *Kernel) offer(pe int, s Slot) {
	k.Offers[pe] = s
	sh := &k.sh[0]
	if k.shardOf != nil {
		sh = &k.sh[k.shardOf[pe]]
	}
	sh.Mark(pe)
}

// Accepted reports whether the offer at pe was injected in the last cycle.
func (k *Kernel) Accepted(pe int) bool { return k.accepted[pe] }

// Delivered returns packets delivered in the last cycle; the slice is reused.
func (k *Kernel) Delivered() []noc.Packet {
	if k.shardOf == nil {
		return k.sh[0].delivered
	}
	return k.mergedDelivered
}

// InFlight returns the number of packets inside the network.
func (k *Kernel) InFlight() int {
	t := 0
	for j := range k.sh {
		t += k.sh[j].InFlight
	}
	return t
}

// Counters returns the network-wide event counters. Sharded kernels merge
// the per-shard counters on each call; the merge is pure integer addition,
// so the totals are identical to sequential stepping.
func (k *Kernel) Counters() *noc.Counters {
	if k.shardOf == nil {
		return &k.sh[0].Counters
	}
	k.mergedCounters = noc.Counters{}
	for j := range k.sh {
		k.mergedCounters.Add(&k.sh[j].Counters)
	}
	return &k.mergedCounters
}

// Step advances the network one cycle on the calling goroutine: every
// active router routes its inputs, then the links latch. Shards run in
// ascending order, so the visit order is ascending router index whatever the
// partition — the order delivery lists, event streams, and with them every
// downstream floating-point accumulation depend on. For the same reason a
// kernel without per-shard observers can hand every shard the network
// observer directly.
func (k *Kernel) Step(now int64) {
	k.BeginCycle(now)
	for j := range k.sh {
		if k.shardObs == nil {
			k.stepShard(&k.sh[j], now, k.obs)
		} else {
			k.StepShard(j, now)
		}
	}
	k.EndCycle(now)
}

// BeginCycle implements noc.ShardedNetwork: publish every shard's pending
// activity marks as the cycle's working set. Coordinator only.
func (k *Kernel) BeginCycle(now int64) {
	if k.shardOf == nil {
		// One shard: its next array is the working set. Swapping skips the
		// merge below, which matters on large, mostly idle fabrics.
		s0 := &k.sh[0]
		k.curBits, s0.next = s0.next, k.curBits
		clear(s0.next)
		return
	}
	clear(k.curBits)
	for j := range k.sh {
		next := k.sh[j].next
		for w, b := range next {
			if b != 0 {
				k.curBits[w] |= b
				next[w] = 0
			}
		}
	}
}

// StepShard implements noc.ShardedNetwork: route the active routers in shard
// j's range, then run the post hook over that range. Calls for distinct j
// may run concurrently between BeginCycle and EndCycle.
func (k *Kernel) StepShard(j int, now int64) {
	var obs telemetry.Observer
	if j < len(k.shardObs) {
		obs = k.shardObs[j]
	}
	k.stepShard(&k.sh[j], now, obs)
}

// open starts sh's cycle: stamp it, and retract what it reported last cycle.
func (k *Kernel) open(sh *Shard, now int64, obs telemetry.Observer) {
	sh.Now, sh.Obs = now, obs
	sh.delivered = sh.delivered[:0]
	for _, pe := range sh.acceptedPEs {
		k.accepted[pe] = false
	}
	sh.acceptedPEs = sh.acceptedPEs[:0]
}

func (k *Kernel) stepShard(sh *Shard, now int64, obs telemetry.Observer) {
	k.open(sh, now, obs)
	w, router := k.W, k.router
	for wd := sh.loWord; wd < sh.hiWord; wd++ {
		for b := sh.clip(wd, k.curBits[wd]); b != 0; b &= b - 1 {
			i := wd<<6 + bits.TrailingZeros64(b)
			router.Route(sh, i, i%w, i/w, now)
		}
	}
	if k.post == nil {
		return
	}
	for wd := sh.loWord; wd < sh.hiWord; wd++ {
		for b := sh.clip(wd, k.curBits[wd]|sh.keep[wd]); b != 0; b &= b - 1 {
			bit := b & -b
			if k.post(sh, wd<<6+bits.TrailingZeros64(b)) {
				sh.keep[wd] |= bit
			} else {
				sh.keep[wd] &^= bit
			}
		}
	}
}

// EndCycle implements noc.ShardedNetwork: latch the link registers (the
// consumed Cur side is all -1 again, so it becomes the next write side),
// merge per-shard deliveries in ascending shard order (= row-major = the
// sequential delivery order), and return recycled pool slots to their
// owning arenas. Coordinator only.
func (k *Kernel) EndCycle(now int64) {
	k.Cur, k.Next = k.Next, k.Cur
	if k.shardOf == nil {
		return
	}
	merged := k.mergedDelivered[:0]
	for j := range k.sh {
		sh := &k.sh[j]
		merged = append(merged, sh.delivered...)
		for _, r := range sh.freed {
			owner := &k.sh[r/k.bound]
			owner.free = append(owner.free, r)
		}
		sh.freed = sh.freed[:0]
	}
	k.mergedDelivered = merged
}

// BeginDense starts a cycle of a family's dense reference stepper, which
// routes every router itself and uses only shard 0's bookkeeping.
func (k *Kernel) BeginDense(now int64) *Shard {
	s0 := &k.sh[0]
	k.open(s0, now, k.obs)
	clear(s0.next)
	return s0
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
// latched, and marking its router (which sh owns) keeps it in the working set.
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
	if n := len(sh.free); n > 0 {
		r = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		if sh.cursor == sh.limit {
			panic("fabric: packet pool exhausted (PoolBound violated)")
		}
		r = sh.cursor
		sh.cursor++
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

// DeliverIdx delivers the pooled packet at r and recycles the slot: straight
// onto the free list when single-shard, via the freed staging list when
// sharded (r may belong to another shard's arena).
func (k *Kernel) DeliverIdx(sh *Shard, r int32) {
	k.Deliver(sh, k.Pool[r])
	if k.shardOf != nil {
		sh.freed = append(sh.freed, r)
	} else {
		sh.free = append(sh.free, r)
	}
}
