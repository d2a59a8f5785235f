// Package reliability provides an end-to-end resilient-delivery wrapper for
// any sim.Workload: every injected packet is tracked until delivery, and a
// packet that misses its delivery deadline is retransmitted from the source
// with exponential backoff and a bounded retry budget. Redundant deliveries
// (an original and its retransmit both arriving) are suppressed before they
// reach the inner workload, so dependency-driven traces observe each packet
// exactly once.
//
// The layer is what lets a simulation complete gracefully when the network
// is wrapped by internal/faults with drop or misroute faults: lost packets
// are recovered by retransmission instead of hanging the run, and the
// recovery counts (retries, recovered packets, duplicates, abandoned
// packets) surface in sim.Result via stats.RecoveryCounts.
//
// Retransmitted packets carry fresh negative IDs so they never collide with
// workload-assigned IDs, and keep the original generation cycle so measured
// latency spans the full recovery, not just the final attempt.
package reliability

import (
	"container/heap"

	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
	"fasttrack/internal/stats"
	"fasttrack/internal/telemetry"
)

// Config tunes the retransmission policy.
type Config struct {
	// Timeout is the delivery deadline in cycles before the first
	// retransmission; 0 means 256.
	Timeout int64
	// MaxRetries bounds retransmissions per packet; after the budget the
	// packet is abandoned (counted, and a late arrival still completes it).
	// 0 means 8.
	MaxRetries int
	// Backoff multiplies the deadline for each successive retransmission;
	// 0 means 2. Values below 1 are raised to 1 (constant timeout).
	Backoff float64
}

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = 256
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.Backoff == 0 {
		c.Backoff = 2
	}
	if c.Backoff < 1 {
		c.Backoff = 1
	}
	return c
}

// maxTimeout caps backoff growth so deadlines stay well inside cycle limits.
const maxTimeout = 1 << 20

type state uint8

const (
	// stateFlying: a copy is in the network with an armed deadline.
	stateFlying state = iota
	// stateQueued: a retransmission is waiting at the source.
	stateQueued
	// stateDone: delivered to the inner workload.
	stateDone
	// stateAbandoned: retry budget exhausted; a late arrival still counts.
	stateAbandoned
)

// entry tracks one application packet across all its wire copies.
type entry struct {
	orig     noc.Packet
	resend   noc.Packet // current retransmit copy while queued
	state    state
	attempts int
	deadline int64
}

// timer is a lazy-deleted deadline heap element; stale when the entry moved
// on (different state or re-armed deadline).
type timer struct {
	deadline int64
	seq      int64
	e        *entry
}

type timerHeap []timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timer)) }
func (h *timerHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Workload decorates an inner sim.Workload with resilient delivery. It
// relies on the engine's per-cycle protocol: Pending is called for every PE
// each cycle before Step, and Injected only for accepted offers.
type Workload struct {
	inner sim.Workload
	cfg   Config
	width int

	// wires maps every wire-level packet ID (original or retransmit) to its
	// entry; completed entries stay mapped to classify late duplicates.
	wires   map[int64]*entry
	timers  timerHeap
	retryQ  map[int][]*entry
	pending map[int]*entry // retransmit offered to the engine this cycle

	counts   stats.RecoveryCounts
	live     int64
	nextWire int64 // negative wire IDs for retransmits
	nextSeq  int64

	// obs, when non-nil, receives OnDrop when a packet exhausts its retry
	// budget.
	obs telemetry.Observer
}

// Wrap decorates inner for a torus of the given width (used to map a source
// coordinate back to its PE injection queue).
func Wrap(inner sim.Workload, width int, cfg Config) *Workload {
	return &Workload{
		inner: inner, cfg: cfg.withDefaults(), width: width,
		wires:   make(map[int64]*entry),
		retryQ:  make(map[int][]*entry),
		pending: make(map[int]*entry),
	}
}

// RecoveryCounts implements sim.RecoveryReporter.
func (w *Workload) RecoveryCounts() stats.RecoveryCounts { return w.counts }

// SetObserver implements telemetry.Observable; sim.Run attaches
// Options.Observer to the workload through this.
func (w *Workload) SetObserver(o telemetry.Observer) { w.obs = o }

// timeoutFor returns the (backed-off) deadline distance for a given attempt.
func (w *Workload) timeoutFor(attempts int) int64 {
	t := float64(w.cfg.Timeout)
	for i := 0; i < attempts; i++ {
		t *= w.cfg.Backoff
		if t >= maxTimeout {
			return maxTimeout
		}
	}
	return int64(t)
}

func (w *Workload) arm(e *entry, now int64) {
	e.state = stateFlying
	e.deadline = now + w.timeoutFor(e.attempts)
	w.nextSeq++
	heap.Push(&w.timers, timer{deadline: e.deadline, seq: w.nextSeq, e: e})
}

// Tick implements sim.Workload: tick the inner workload, then expire
// deadlines — each timed-out packet is either queued for retransmission or
// abandoned once its retry budget is spent.
func (w *Workload) Tick(now int64) {
	w.inner.Tick(now)
	for len(w.timers) > 0 && w.timers[0].deadline <= now {
		t := heap.Pop(&w.timers).(timer)
		e := t.e
		if e.state != stateFlying || e.deadline != t.deadline {
			continue // stale timer: the entry completed or was re-armed
		}
		if e.attempts >= w.cfg.MaxRetries {
			e.state = stateAbandoned
			w.counts.Abandoned++
			w.live--
			if w.obs != nil {
				w.obs.OnDrop(now, &e.orig)
			}
			continue
		}
		e.attempts++
		w.counts.Retries++
		e.state = stateQueued
		w.nextWire--
		e.resend = e.orig
		e.resend.ID = w.nextWire
		e.resend.ShortHops, e.resend.ExpressHops, e.resend.Deflections = 0, 0, 0
		w.wires[e.resend.ID] = e
		pe := noc.PEIndex(e.orig.Src, w.width)
		w.retryQ[pe] = append(w.retryQ[pe], e)
	}
}

// Pending implements sim.Workload: retransmissions take priority over new
// traffic from the inner workload.
func (w *Workload) Pending(pe int, now int64) (noc.Packet, bool) {
	q := w.retryQ[pe]
	for len(q) > 0 {
		e := q[0]
		if e.state != stateQueued {
			q = q[1:] // completed while waiting; drop the ghost
			continue
		}
		w.retryQ[pe] = q
		w.pending[pe] = e
		return e.resend, true
	}
	if len(q) == 0 {
		delete(w.retryQ, pe)
	}
	delete(w.pending, pe)
	return w.inner.Pending(pe, now)
}

// Injected implements sim.Workload: start tracking an original send, or
// re-arm the deadline of an injected retransmission.
func (w *Workload) Injected(pe int, now int64) {
	if e, ok := w.pending[pe]; ok {
		w.retryQ[pe] = w.retryQ[pe][1:]
		delete(w.pending, pe)
		w.arm(e, now)
		return
	}
	p, ok := w.inner.Pending(pe, now)
	w.inner.Injected(pe, now)
	if !ok {
		return // protocol violation by the inner workload; nothing to track
	}
	e := &entry{orig: p, attempts: 0}
	w.wires[p.ID] = e
	w.counts.Sent++
	w.live++
	w.arm(e, now)
}

// Delivered implements sim.Workload: complete the entry on first arrival,
// suppress duplicates, and credit late arrivals of abandoned packets.
func (w *Workload) Delivered(p noc.Packet, now int64) {
	e, ok := w.wires[p.ID]
	if !ok {
		// Not ours (reliability was attached mid-stack); pass through.
		w.inner.Delivered(p, now)
		return
	}
	switch e.state {
	case stateDone:
		w.counts.Duplicates++
	case stateAbandoned:
		e.state = stateDone
		w.counts.Abandoned--
		w.counts.Completed++
		w.counts.Recovered++
		w.inner.Delivered(e.orig, now)
	default: // flying or queued
		e.state = stateDone
		w.live--
		w.counts.Completed++
		if e.attempts > 0 {
			w.counts.Recovered++
		}
		w.inner.Delivered(e.orig, now)
	}
}

// Done implements sim.Workload: the run drains only when the inner workload
// is done and no tracked packet is still awaiting delivery or retry.
func (w *Workload) Done() bool { return w.live == 0 && w.inner.Done() }
