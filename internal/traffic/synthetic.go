package traffic

import (
	"math"

	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// noNext marks a PE (or the generator) with no future generation event.
const noNext = math.MaxInt64

// SynthView is the synthetic workload over one w×h fabric. Every PE generates
// pattern traffic with Bernoulli arrivals — a packet with probability rate per
// cycle until quota packets — into an unbounded source queue, so measured
// latency includes source queueing and saturated networks show the
// hockey-stick curves of Fig 12.
//
// The queue is implicit. Bernoulli arrivals are open-loop (the draw sequence
// never depends on network state), so a packet's generation cycle and
// destination are a pure function of its PE's seed-split RNG stream. Each PE
// keeps only its head, the next uninjected generation event, with the RNG
// cursor just past it; Injected replays the stream to the event after it
// exactly as a per-cycle generator consumes it (see advance). Every draw is
// still made once and in the same per-PE order, whenever it is made, so the
// packets that materialize — ID, source, destination, generation cycle,
// order — are those of the straight-line per-cycle generator kept as the
// oracle in oracle_test.go, and a saturated run stores nothing per backlogged
// packet. A tick touches per-PE state only when some empty queue's head
// arrives, so the engine may fast-forward an otherwise-idle run to it.
//
// SynthView implements sim.Workload, ActiveSet, ChangeReporter and
// EventWorkload. Ticks must visit cycles in ascending order and may skip only
// cycles before NextEventCycle; Injected must be called with the cycle of the
// last tick.
type SynthView struct {
	w, h, n int
	pattern Pattern
	rate    float64
	quota   int

	queued int // PEs whose head has arrived: non-empty queues
	done   int // PEs that are silent or have injected their quota

	// minNext is the earliest wake (noNext when no empty queue has a head
	// to come): cycles before it cannot fill a queue, so a tick returns
	// immediately and the engine may fast-forward an otherwise-idle run
	// straight to it.
	minNext int64

	// live lists PEs with a non-empty source queue (inLive guards against
	// duplicates); it backs the sim.ActiveSet fast path. PEs are added when
	// their queue first becomes non-empty and dropped lazily when the active
	// walk finds them drained.
	live []int
	// chg lists the PEs whose head changed since the last Changed call,
	// kept only once Changed has been called (report): a view no caller
	// drains never grows it.
	chg    []int
	report bool

	// Per-PE state, indexed by PE. The head is the (injected+1)-th
	// generation event, at nextCycle (noNext past the quota) to nextDst.
	rngs      []xrand.Rand
	nextCycle []int64
	nextDst   []noc.Coord
	injected  []int32
	has       []bool  // the head has arrived: the queue is non-empty
	wake      []int64 // nextCycle while the queue is empty, noNext otherwise
	inLive    []bool
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
		injected:  make([]int32, n),
		has:       make([]bool, n),
		wake:      make([]int64, n),
		inLive:    make([]bool, n),
		minNext:   noNext,
	}
	root := xrand.New(seed)
	for pe := 0; pe < n; pe++ {
		v.rngs[pe] = *root.SplitBy(uint64(pe))
		if quota <= 0 || Silent(pattern, noc.PECoord(pe, w), w, h) {
			v.done++
			v.nextCycle[pe] = noNext
		} else {
			v.advance(pe, -1)
		}
		v.wake[pe] = v.nextCycle[pe]
		v.minNext = min(v.minNext, v.wake[pe])
	}
	return v
}

// advance replays PE pe's RNG stream from cycle after+1 until the next
// committed generation event, one cycle per iteration: one Bool(rate) draw
// (which consumes nothing at rate ≥ 1 or ≤ 0), then a Dest probe on success,
// with a !ok probe consuming its draws and skipping the cycle.
func (v *SynthView) advance(pe int, after int64) {
	if v.rate <= 0 {
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

// Tick implements sim.Workload: every empty queue whose head arrives this
// cycle becomes non-empty. Arrivals behind a head need no work. It returns
// without touching per-PE state on cycles before the earliest wake.
func (v *SynthView) Tick(now int64) {
	if now < v.minNext {
		return
	}
	min := int64(noNext)
	for pe, wk := range v.wake {
		if wk == now {
			v.has[pe] = true
			v.wake[pe] = noNext
			v.queued++
			if v.report {
				v.chg = append(v.chg, pe)
			}
			if !v.inLive[pe] {
				v.inLive[pe] = true
				v.live = append(v.live, pe)
			}
			continue
		}
		if wk < min {
			min = wk
		}
	}
	v.minNext = min
}

// Pending implements sim.Workload, materializing the head packet. IDs are a
// per-PE (source, sequence) pair rather than a global counter: the sequence
// half is the number of packets this PE has already injected plus one
// (queues are FIFO, so the head is always the oldest uninjected sequence
// number). Packet IDs reach every pinned digest, so the scheme stays fixed.
// Quotas are bounded well below 2^32.
func (v *SynthView) Pending(pe int, _ int64) (noc.Packet, bool) {
	if !v.has[pe] {
		return noc.Packet{}, false
	}
	return noc.Packet{
		ID:    (int64(pe)+1)<<32 | int64(v.injected[pe]+1),
		Src:   noc.PECoord(pe, v.w),
		Dst:   v.nextDst[pe],
		Gen:   v.nextCycle[pe],
		Event: -1,
	}, true
}

// Injected implements sim.Workload: dequeue pe's head packet. The next
// event becomes the head; if it arrives after now, the queue is empty
// until then.
func (v *SynthView) Injected(pe int, now int64) {
	v.injected[pe]++
	if int(v.injected[pe]) == v.quota {
		v.done++
		v.nextCycle[pe] = noNext
	} else {
		v.advance(pe, v.nextCycle[pe])
		if v.nextCycle[pe] <= now {
			if v.report {
				v.chg = append(v.chg, pe)
			}
			return
		}
	}
	v.has[pe] = false
	v.queued--
	v.wake[pe] = v.nextCycle[pe]
	v.minNext = min(v.minNext, v.wake[pe])
}

// Changed implements sim.ChangeReporter. Only a tick filling an empty queue
// or an Injected exposing a next head moves a head (or the ID's sequence
// half); the first call reports every queued PE.
func (v *SynthView) Changed(buf []int) []int {
	if !v.report {
		v.report = true
		return v.ActivePEs(buf)
	}
	buf = append(buf, v.chg...)
	v.chg = v.chg[:0]
	return buf
}

// Delivered implements sim.Workload (synthetic traffic has no dependencies).
func (v *SynthView) Delivered(noc.Packet, int64) {}

// Done implements sim.Workload: every PE is silent or has injected its quota.
func (v *SynthView) Done() bool { return v.done == v.n }

// ActivePEs implements sim.ActiveSet: the PEs with a queued packet. Drained
// PEs are dropped here rather than in Injected, so the list walk doubles as
// the compaction pass.
func (v *SynthView) ActivePEs(buf []int) []int {
	kept := v.live[:0]
	for _, pe := range v.live {
		if !v.has[pe] {
			v.inLive[pe] = false
			continue
		}
		kept = append(kept, pe)
		buf = append(buf, pe)
	}
	v.live = kept
	return buf
}

// NextEventCycle implements sim.EventWorkload: the earliest cycle at which
// Tick can fill an empty queue, or math.MaxInt64 when none will. While
// QueueEmpty, the only time the engine asks, that is the next generation
// event.
func (v *SynthView) NextEventCycle(int64) int64 { return v.minNext }

// QueueEmpty implements sim.EventWorkload: no PE holds a queued packet.
func (v *SynthView) QueueEmpty() bool { return v.queued == 0 }
