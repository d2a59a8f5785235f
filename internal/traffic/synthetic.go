package traffic

import (
	"math"

	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// noNext marks a PE (or shard) with no future generation event.
const noNext = math.MaxInt64

// qent is one queued source packet. Only the destination and generation
// cycle vary per packet — the ID is a (source, sequence) pair reconstructed
// at Pending time from the per-PE injected count, and Src is the PE — so the
// queue stores 24 bytes instead of an 80-byte noc.Packet.
type qent struct {
	dst noc.Coord
	gen int64
}

// srcQueue is a head-indexed FIFO: dequeue advances head (no memmove, which
// dominated the saturated profile of a shift-down queue), enqueue appends,
// and the buffer compacts only when append would otherwise grow it.
type srcQueue struct {
	buf  []qent
	head int
}

func (q *srcQueue) push(e qent) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, e)
}

func (q *srcQueue) empty() bool { return q.head == len(q.buf) }

// synthShard is one shard's slice of the generator's aggregate state: a
// contiguous PE range plus every mutable word that summarizes it, so shards
// ticked on different workers never touch a shared word. An unpartitioned
// generator is the one-shard case of the same code.
type synthShard struct {
	lo, hi  int // PE range [lo, hi)
	pending int // packets queued across the range
	doneGen int // PEs in range that are silent or at quota

	// minNext is the earliest pending generation event across the range
	// (noNext when generation is finished): cycles before it cannot enqueue
	// anything, so a tick returns immediately and the engine may fast-forward
	// an otherwise-idle run straight to it.
	minNext int64

	// live lists PEs with a non-empty source queue (inLive guards against
	// duplicates); it backs the sim.ActiveSet fast path. PEs are added when
	// their queue first becomes non-empty and dropped lazily when the active
	// walk finds them drained.
	live []int
}

// SynthView is the synthetic workload over one w×h fabric. Every PE generates
// pattern traffic with Bernoulli arrivals — a packet with probability rate per
// cycle until quota packets — into an unbounded source queue, so measured
// latency includes source queueing and saturated networks show the
// hockey-stick curves of Fig 12.
//
// Generation is event-driven rather than per-cycle: Bernoulli arrivals are
// open-loop (the draw sequence never depends on network state), so each PE's
// next generation event is precomputed by replaying its seed-split RNG stream
// exactly as a per-cycle generator consumes it (see advance). A tick before a
// shard's earliest event then touches no PE, and the packets that materialize
// — ID, source, destination, generation cycle, order — are those of the
// straight-line per-cycle generator kept as the oracle in oracle_test.go.
//
// SynthView implements sim.Workload, ActiveSet, StableHead, EventWorkload and
// ShardableWorkload. Ticks must visit cycles in ascending order and may skip
// only cycles before NextEventCycle.
type SynthView struct {
	w, h, n int
	pattern Pattern
	rate    float64
	quota   int

	sh []synthShard
	// peShard maps a PE to its owning shard; nil while there is one shard,
	// so Injected on an unpartitioned generator never pays the lookup.
	peShard []int32

	// Per-PE state, indexed by PE.
	rngs      []xrand.Rand
	nextCycle []int64     // cycle of the next committed generation event
	nextDst   []noc.Coord // its destination
	generated []int32
	injected  []int32
	silent    []bool // PEs the pattern never sources from
	inLive    []bool
	queues    []srcQueue
}

// NewSynthetic builds a synthetic workload for a w×h network. rate is the
// per-PE injection probability per cycle (the paper's "injection rate" axis);
// quota is packets per PE (the paper uses 1000). seed fixes the random
// streams.
//
// Whether a PE is permanently silent (e.g. the TRANSPOSE diagonal) is the
// pattern's SilenceClassifier verdict, never a sampled Dest probe: a
// stochastic pattern that returns !ok on one draw merely skips that cycle.
func NewSynthetic(w, h int, pattern Pattern, rate float64, quota int, seed uint64) *SynthView {
	n := w * h
	v := &SynthView{
		w: w, h: h, n: n,
		pattern: pattern, rate: rate, quota: quota,
		rngs:      make([]xrand.Rand, n),
		nextCycle: make([]int64, n),
		nextDst:   make([]noc.Coord, n),
		generated: make([]int32, n),
		injected:  make([]int32, n),
		silent:    make([]bool, n),
		inLive:    make([]bool, n),
		queues:    make([]srcQueue, n),
	}
	root := xrand.New(seed)
	for pe := 0; pe < n; pe++ {
		v.rngs[pe] = *root.SplitBy(uint64(pe))
		v.silent[pe] = Silent(pattern, noc.PECoord(pe, w), w, h)
		v.advance(pe, -1)
	}
	v.ConfigureShards([]int{0, n})
	return v
}

// advance replays PE pe's RNG stream from cycle after+1 until the next
// committed generation event, one cycle per iteration: one Bool(rate) draw
// (which consumes nothing at rate ≥ 1 or ≤ 0), then a Dest probe on success,
// with a !ok probe consuming its draws and skipping the cycle.
func (v *SynthView) advance(pe int, after int64) {
	if v.silent[pe] || int(v.generated[pe]) >= v.quota || v.rate <= 0 {
		v.nextCycle[pe] = noNext
		return
	}
	rng := &v.rngs[pe]
	src := noc.PECoord(pe, v.w)
	for cyc := after + 1; ; cyc++ {
		if !rng.Bool(v.rate) {
			continue
		}
		dst, ok := v.pattern.Dest(src, v.w, v.h, rng)
		if !ok {
			continue
		}
		v.nextCycle[pe] = cyc
		v.nextDst[pe] = dst
		return
	}
}

func (v *SynthView) shardOf(pe int) *synthShard {
	if v.peShard == nil {
		return &v.sh[0]
	}
	return &v.sh[v.peShard[pe]]
}

// ConfigureShards implements sim.ShardableWorkload: repartition the PE space
// into len(bounds)-1 contiguous shards with shard k owning PEs
// [bounds[k], bounds[k+1]). Aggregate state is redistributed to the new
// owners; live-list insertion order is preserved per shard so an active walk
// stays deterministic. Returns false (leaving the generator untouched) if
// bounds do not partition [0, n).
func (v *SynthView) ConfigureShards(bounds []int) bool {
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != v.n {
		return false
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return false
		}
	}
	var oldLive []int
	for k := range v.sh {
		oldLive = append(oldLive, v.sh[k].live...)
	}
	v.sh, v.peShard = make([]synthShard, len(bounds)-1), nil
	if len(v.sh) > 1 {
		v.peShard = make([]int32, v.n)
	}
	for k := range v.sh {
		sh := &v.sh[k]
		sh.lo, sh.hi, sh.minNext = bounds[k], bounds[k+1], noNext
		for pe := sh.lo; pe < sh.hi; pe++ {
			if v.peShard != nil {
				v.peShard[pe] = int32(k)
			}
			if v.silent[pe] || int(v.generated[pe]) >= v.quota {
				sh.doneGen++
			}
			sh.pending += len(v.queues[pe].buf) - v.queues[pe].head
			if nc := v.nextCycle[pe]; nc < sh.minNext {
				sh.minNext = nc
			}
		}
	}
	for _, pe := range oldLive {
		if v.queues[pe].empty() {
			v.inLive[pe] = false
			continue
		}
		sh := v.shardOf(pe)
		sh.live = append(sh.live, pe)
	}
	return true
}

// Tick implements sim.Workload: enqueue every PE whose precomputed event
// fires this cycle.
func (v *SynthView) Tick(now int64) {
	for k := range v.sh {
		v.tickShard(&v.sh[k], now)
	}
}

// TickShard implements sim.ShardableWorkload: generation for shard k's PE
// range only. Safe to call concurrently for distinct k.
func (v *SynthView) TickShard(k int, now int64) { v.tickShard(&v.sh[k], now) }

// tickShard returns without touching per-PE state on cycles before the
// shard's earliest event.
func (v *SynthView) tickShard(sh *synthShard, now int64) {
	if now < sh.minNext {
		return
	}
	min := int64(noNext)
	for pe := sh.lo; pe < sh.hi; pe++ {
		nc := v.nextCycle[pe]
		if nc == now {
			v.queues[pe].push(qent{dst: v.nextDst[pe], gen: now})
			sh.pending++
			if !v.inLive[pe] {
				v.inLive[pe] = true
				sh.live = append(sh.live, pe)
			}
			v.generated[pe]++
			if int(v.generated[pe]) == v.quota {
				sh.doneGen++
			}
			v.advance(pe, now)
			nc = v.nextCycle[pe]
		}
		if nc < min {
			min = nc
		}
	}
	sh.minNext = min
}

// Pending implements sim.Workload, materializing the head packet. IDs are a
// per-PE (source, sequence) pair rather than a global counter, so the ID a
// packet gets is independent of the order PEs are ticked in — shard-parallel
// generation assigns the same IDs as a sequential pass; the sequence half is
// the number of packets this PE has already injected plus one (queues are
// FIFO, so the head is always the oldest uninjected sequence number). Quotas
// are bounded well below 2^32.
func (v *SynthView) Pending(pe int, _ int64) (noc.Packet, bool) {
	q := &v.queues[pe]
	if q.empty() {
		return noc.Packet{}, false
	}
	e := q.buf[q.head]
	return noc.Packet{
		ID:    (int64(pe)+1)<<32 | int64(v.injected[pe]+1),
		Src:   noc.PECoord(pe, v.w),
		Dst:   e.dst,
		Gen:   e.gen,
		Event: -1,
	}, true
}

// StableHead declares sim.StableHead: Tick appends behind the head and only
// Injected dequeues (or moves the ID's sequence half), so Pending is fixed.
func (v *SynthView) StableHead() {}

// Injected implements sim.Workload. Safe to call concurrently for PEs in
// distinct shards: the dequeue touches only per-PE state and the pending
// count of the owning shard.
func (v *SynthView) Injected(pe int, _ int64) {
	q := &v.queues[pe]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	v.injected[pe]++
	v.shardOf(pe).pending--
}

// Delivered implements sim.Workload (synthetic traffic has no dependencies).
func (v *SynthView) Delivered(noc.Packet, int64) {}

// Done implements sim.Workload.
func (v *SynthView) Done() bool {
	for _, sh := range v.sh {
		if sh.doneGen != sh.hi-sh.lo || sh.pending != 0 {
			return false
		}
	}
	return true
}

// ActivePEs implements sim.ActiveSet: the PEs with a queued packet. Drained
// PEs are dropped here rather than in Injected, so the list walk doubles as
// the compaction pass and Injected stays O(1).
func (v *SynthView) ActivePEs(buf []int) []int {
	for k := range v.sh {
		buf = v.activeShard(&v.sh[k], buf)
	}
	return buf
}

// ActiveShard implements sim.ShardableWorkload: live PEs of shard k only.
// Safe to call concurrently for distinct k.
func (v *SynthView) ActiveShard(k int, buf []int) []int {
	return v.activeShard(&v.sh[k], buf)
}

func (v *SynthView) activeShard(sh *synthShard, buf []int) []int {
	kept := sh.live[:0]
	for _, pe := range sh.live {
		if v.queues[pe].empty() {
			v.inLive[pe] = false
			continue
		}
		kept = append(kept, pe)
		buf = append(buf, pe)
	}
	sh.live = kept
	return buf
}

// NextEventCycle implements sim.EventWorkload: the earliest cycle at which
// Tick can enqueue new work, or math.MaxInt64 when generation is finished.
func (v *SynthView) NextEventCycle(int64) int64 {
	min := int64(noNext)
	for _, sh := range v.sh {
		if sh.minNext < min {
			min = sh.minNext
		}
	}
	return min
}

// QueueEmpty implements sim.EventWorkload: no PE holds a queued packet.
func (v *SynthView) QueueEmpty() bool {
	for _, sh := range v.sh {
		if sh.pending != 0 {
			return false
		}
	}
	return true
}

// Generated returns the total packets created so far.
func (v *SynthView) Generated() int64 {
	var total int64
	for _, g := range v.generated {
		total += int64(g)
	}
	return total
}
