package traffic

import (
	"math"

	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// noNext marks a PE (or shard) with no future generation event.
const noNext = math.MaxInt64

// SynthSpec is one instance of a synthetic workload: the per-job parameters
// of NewSynthetic. Instances in one batch share the fabric geometry but may
// differ in everything else.
type SynthSpec struct {
	Pattern Pattern
	Rate    float64
	Quota   int
	Seed    uint64
}

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

// synthShard is one (instance, shard) slice of the generator's aggregate
// state: a contiguous PE range plus every mutable word that summarizes it,
// so shards ticked on different workers never touch a shared word. An
// unpartitioned instance is the one-shard case of the same code.
type synthShard struct {
	lo, hi  int // PE range [lo, hi)
	pending int // packets queued across the range
	doneGen int // PEs in range that are silent or at quota

	// minNext is the earliest pending generation event across the range
	// (noNext when generation is finished): cycles before it cannot enqueue
	// anything, so a tick returns immediately and the lockstep driver may
	// fast-forward an otherwise-idle instance straight to it.
	minNext int64

	// live lists PEs with a non-empty source queue (inLive guards against
	// duplicates); it backs the sim.ActiveSet fast path. PEs are added when
	// their queue first becomes non-empty and dropped lazily when the active
	// walk finds them drained.
	live []int
}

// synthInst is one instance's parameters and its shard partition.
type synthInst struct {
	pattern Pattern
	rate    float64
	quota   int

	sh []synthShard
	// peShard maps a PE to its owning shard; nil while the instance has one
	// shard, so Injected on a batched instance never pays the lookup.
	peShard []int32
}

func (in *synthInst) shardOf(pe int) *synthShard {
	if in.peShard == nil {
		return &in.sh[0]
	}
	return &in.sh[in.peShard[pe]]
}

// SyntheticBatch is B independent synthetic workloads over one fabric
// geometry. Every PE of every instance generates pattern traffic with
// Bernoulli arrivals — a packet with probability Rate per cycle until Quota
// packets — into an unbounded source queue, so measured latency includes
// source queueing and saturated networks show the hockey-stick curves of
// Fig 12. All per-(instance, PE) state lives in flat batch-major arrays
// (index b*n + pe); the per-job workload is the batch of one (NewSynthetic).
//
// Generation is event-driven rather than per-cycle: Bernoulli arrivals are
// open-loop (the draw sequence never depends on network state), so each PE's
// next generation event is precomputed by replaying its seed-split RNG stream
// exactly as a per-cycle generator consumes it (see advance). A tick before a
// shard's earliest event then touches no PE, and the packets that materialize
// — ID, source, destination, generation cycle, order — are those of the
// straight-line per-cycle generator kept as the oracle in oracle_test.go.
//
// Views implement sim.Workload, ActiveSet, StableHead, EventWorkload and
// ShardableWorkload per instance. Ticks must visit cycles in ascending order
// and may skip only cycles before NextEventCycle.
type SyntheticBatch struct {
	w, h, n int
	insts   []synthInst

	// Flat per-(instance, PE) state; index = instance*n + pe.
	rngs      []xrand.Rand
	nextCycle []int64     // cycle of the next committed generation event
	nextDst   []noc.Coord // its destination
	generated []int32
	injected  []int32
	silent    []bool // PEs the pattern never sources from
	inLive    []bool
	queues    []srcQueue

	views []SynthView
}

// NewSynthetic builds a synthetic workload for a w×h network: the instance
// view of a one-spec SyntheticBatch. rate is the per-PE injection probability
// per cycle (the paper's "injection rate" axis); quota is packets per PE (the
// paper uses 1000). seed fixes the random streams.
func NewSynthetic(w, h int, pattern Pattern, rate float64, quota int, seed uint64) *SynthView {
	return NewSyntheticBatch(w, h, []SynthSpec{{Pattern: pattern, Rate: rate, Quota: quota, Seed: seed}}).View(0)
}

// NewSyntheticBatch builds one workload instance per spec over a w×h fabric.
//
// Whether a PE is permanently silent (e.g. the TRANSPOSE diagonal) is the
// pattern's SilenceClassifier verdict, never a sampled Dest probe: a
// stochastic pattern that returns !ok on one draw merely skips that cycle.
func NewSyntheticBatch(w, h int, specs []SynthSpec) *SyntheticBatch {
	n := w * h
	b := len(specs)
	s := &SyntheticBatch{
		w: w, h: h, n: n,
		insts:     make([]synthInst, b),
		rngs:      make([]xrand.Rand, b*n),
		nextCycle: make([]int64, b*n),
		nextDst:   make([]noc.Coord, b*n),
		generated: make([]int32, b*n),
		injected:  make([]int32, b*n),
		silent:    make([]bool, b*n),
		inLive:    make([]bool, b*n),
		queues:    make([]srcQueue, b*n),
		views:     make([]SynthView, b),
	}
	for bi, spec := range specs {
		in := &s.insts[bi]
		in.pattern, in.rate, in.quota = spec.Pattern, spec.Rate, spec.Quota
		root := xrand.New(spec.Seed)
		base := bi * n
		for pe := 0; pe < n; pe++ {
			idx := base + pe
			s.rngs[idx] = *root.SplitBy(uint64(pe))
			s.silent[idx] = Silent(spec.Pattern, noc.PECoord(pe, w), w, h)
			s.advance(bi, pe, -1)
		}
		s.views[bi] = SynthView{sb: s, b: bi, base: base}
		s.views[bi].ConfigureShards([]int{0, n})
	}
	return s
}

// advance replays PE (b, pe)'s RNG stream from cycle after+1 until the next
// committed generation event, one cycle per iteration: one Bool(rate) draw
// (which consumes nothing at rate ≥ 1 or ≤ 0), then a Dest probe on success,
// with a !ok probe consuming its draws and skipping the cycle.
func (s *SyntheticBatch) advance(b, pe int, after int64) {
	idx := b*s.n + pe
	in := &s.insts[b]
	if s.silent[idx] || int(s.generated[idx]) >= in.quota || in.rate <= 0 {
		s.nextCycle[idx] = noNext
		return
	}
	rng := &s.rngs[idx]
	src := noc.PECoord(pe, s.w)
	for cyc := after + 1; ; cyc++ {
		if !rng.Bool(in.rate) {
			continue
		}
		dst, ok := in.pattern.Dest(src, s.w, s.h, rng)
		if !ok {
			continue
		}
		s.nextCycle[idx] = cyc
		s.nextDst[idx] = dst
		return
	}
}

// View returns instance b's sim.Workload facade.
func (s *SyntheticBatch) View(b int) *SynthView { return &s.views[b] }

// SynthView is one SyntheticBatch instance as a workload. Obtain with
// NewSynthetic or SyntheticBatch.View. Views of one batch share nothing
// mutable, so siblings may be driven from different goroutines.
type SynthView struct {
	sb   *SyntheticBatch
	b    int
	base int
}

// ConfigureShards implements sim.ShardableWorkload: repartition this
// instance's PE space into len(bounds)-1 contiguous shards with shard k
// owning PEs [bounds[k], bounds[k+1]). Aggregate state is redistributed to
// the new owners; live-list insertion order is preserved per shard so an
// active walk stays deterministic. Returns false (leaving the instance
// untouched) if bounds do not partition [0, n).
func (v *SynthView) ConfigureShards(bounds []int) bool {
	s := v.sb
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != s.n {
		return false
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return false
		}
	}
	in := &s.insts[v.b]
	var oldLive []int
	for k := range in.sh {
		oldLive = append(oldLive, in.sh[k].live...)
	}
	in.sh, in.peShard = make([]synthShard, len(bounds)-1), nil
	if len(in.sh) > 1 {
		in.peShard = make([]int32, s.n)
	}
	for k := range in.sh {
		sh := &in.sh[k]
		sh.lo, sh.hi, sh.minNext = bounds[k], bounds[k+1], noNext
		for pe := sh.lo; pe < sh.hi; pe++ {
			idx := v.base + pe
			if in.peShard != nil {
				in.peShard[pe] = int32(k)
			}
			if s.silent[idx] || int(s.generated[idx]) >= in.quota {
				sh.doneGen++
			}
			sh.pending += len(s.queues[idx].buf) - s.queues[idx].head
			if nc := s.nextCycle[idx]; nc < sh.minNext {
				sh.minNext = nc
			}
		}
	}
	for _, pe := range oldLive {
		if s.queues[v.base+pe].empty() {
			s.inLive[v.base+pe] = false
			continue
		}
		sh := in.shardOf(pe)
		sh.live = append(sh.live, pe)
	}
	return true
}

// Tick implements sim.Workload: enqueue every PE whose precomputed event
// fires this cycle.
func (v *SynthView) Tick(now int64) {
	sh := v.sb.insts[v.b].sh
	for k := range sh {
		v.tickShard(&sh[k], now)
	}
}

// TickShard implements sim.ShardableWorkload: generation for shard k's PE
// range only. Safe to call concurrently for distinct k.
func (v *SynthView) TickShard(k int, now int64) {
	v.tickShard(&v.sb.insts[v.b].sh[k], now)
}

// tickShard returns without touching per-PE state on cycles before the
// shard's earliest event.
func (v *SynthView) tickShard(sh *synthShard, now int64) {
	if now < sh.minNext {
		return
	}
	s := v.sb
	quota := s.insts[v.b].quota
	min := int64(noNext)
	for pe := sh.lo; pe < sh.hi; pe++ {
		idx := v.base + pe
		nc := s.nextCycle[idx]
		if nc == now {
			s.queues[idx].push(qent{dst: s.nextDst[idx], gen: now})
			sh.pending++
			if !s.inLive[idx] {
				s.inLive[idx] = true
				sh.live = append(sh.live, pe)
			}
			s.generated[idx]++
			if int(s.generated[idx]) == quota {
				sh.doneGen++
			}
			s.advance(v.b, pe, now)
			nc = s.nextCycle[idx]
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
	s := v.sb
	idx := v.base + pe
	q := &s.queues[idx]
	if q.empty() {
		return noc.Packet{}, false
	}
	e := q.buf[q.head]
	return noc.Packet{
		ID:    (int64(pe)+1)<<32 | int64(s.injected[idx]+1),
		Src:   noc.PECoord(pe, s.w),
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
	s := v.sb
	idx := v.base + pe
	q := &s.queues[idx]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	s.injected[idx]++
	s.insts[v.b].shardOf(pe).pending--
}

// Delivered implements sim.Workload (synthetic traffic has no dependencies).
func (v *SynthView) Delivered(noc.Packet, int64) {}

// Done implements sim.Workload.
func (v *SynthView) Done() bool {
	for _, sh := range v.sb.insts[v.b].sh {
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
	sh := v.sb.insts[v.b].sh
	for k := range sh {
		buf = v.activeShard(&sh[k], buf)
	}
	return buf
}

// ActiveShard implements sim.ShardableWorkload: live PEs of shard k only.
// Safe to call concurrently for distinct k.
func (v *SynthView) ActiveShard(k int, buf []int) []int {
	return v.activeShard(&v.sb.insts[v.b].sh[k], buf)
}

func (v *SynthView) activeShard(sh *synthShard, buf []int) []int {
	s := v.sb
	kept := sh.live[:0]
	for _, pe := range sh.live {
		if s.queues[v.base+pe].empty() {
			s.inLive[v.base+pe] = false
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
	for _, sh := range v.sb.insts[v.b].sh {
		if sh.minNext < min {
			min = sh.minNext
		}
	}
	return min
}

// QueueEmpty implements sim.EventWorkload: no PE of this instance holds a
// queued packet.
func (v *SynthView) QueueEmpty() bool {
	for _, sh := range v.sb.insts[v.b].sh {
		if sh.pending != 0 {
			return false
		}
	}
	return true
}

// Generated returns the total packets this instance has created so far.
func (v *SynthView) Generated() int64 {
	var total int64
	for _, g := range v.sb.generated[v.base : v.base+v.sb.n] {
		total += int64(g)
	}
	return total
}
