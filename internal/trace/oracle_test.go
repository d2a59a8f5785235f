package trace

import (
	"container/heap"
	"fmt"

	"fasttrack/internal/noc"
)

// Workload is the materialized replay the production tree carried under this
// name until Stream became the only replay machine (NewWorkload now returns
// a *Stream). It stays here as the independent reference the equivalence tests and FuzzReplayVsOracle
// compare Stream against: per-event slices instead of a ring and an edge
// pool, container/heap instead of the typed heap, up-front Validate instead
// of per-event checks at admission.
type Workload struct {
	tr        *Trace
	width     int
	remaining []int32 // unmet dependency count per event
	done      []bool
	deps      [][]int32
	readyQ    []oracleHeap // per PE, keyed by ready time
	selfQ     oracleHeap   // ready self-addressed events, completed during Tick
	completed int

	// live lists PEs with a non-empty readyQ (inLive guards duplicates), in
	// the order they became live; drained PEs are dropped lazily.
	live   []int
	inLive []bool
}

type oracleHeap []item

func (h oracleHeap) Len() int      { return len(h) }
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].readyAt != h[j].readyAt {
		return h[i].readyAt < h[j].readyAt
	}
	return h[i].ev < h[j].ev
}
func (h *oracleHeap) Push(x any) { *h = append(*h, x.(item)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func newOracle(tr *Trace, width, height int) (*Workload, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.PEs != width*height {
		return nil, fmt.Errorf("trace %q targets %d PEs, network has %d", tr.Name, tr.PEs, width*height)
	}
	w := &Workload{
		tr:        tr,
		width:     width,
		remaining: make([]int32, len(tr.Events)),
		done:      make([]bool, len(tr.Events)),
		deps:      make([][]int32, len(tr.Events)),
		readyQ:    make([]oracleHeap, tr.PEs),
		inLive:    make([]bool, tr.PEs),
	}
	for i, e := range tr.Events {
		w.remaining[i] = int32(len(e.Deps))
		for _, d := range e.Deps {
			w.deps[d] = append(w.deps[d], int32(i))
		}
	}
	// Seed root events.
	for i, e := range tr.Events {
		if w.remaining[i] == 0 {
			w.schedule(int32(i), int64(e.Delay))
		}
	}
	return w, nil
}

func (w *Workload) schedule(ev int32, readyAt int64) {
	e := &w.tr.Events[ev]
	if e.Src == e.Dst {
		heap.Push(&w.selfQ, item{ev: ev, readyAt: readyAt})
		return
	}
	heap.Push(&w.readyQ[e.Src], item{ev: ev, readyAt: readyAt})
	if !w.inLive[e.Src] {
		w.inLive[e.Src] = true
		w.live = append(w.live, e.Src)
	}
}

// complete marks ev finished at cycle now and releases its dependents.
func (w *Workload) complete(ev int32, now int64) {
	w.completed++
	w.done[ev] = true
	for _, dep := range w.deps[ev] {
		w.remaining[dep]--
		if w.remaining[dep] == 0 {
			w.schedule(dep, now+int64(w.tr.Events[dep].Delay))
		}
	}
}

func (w *Workload) Tick(now int64) {
	for len(w.selfQ) > 0 && w.selfQ[0].readyAt <= now {
		it := heap.Pop(&w.selfQ).(item)
		w.complete(it.ev, now)
	}
}

func (w *Workload) Pending(pe int, now int64) (noc.Packet, bool) {
	q := w.readyQ[pe]
	if len(q) == 0 || q[0].readyAt > now {
		return noc.Packet{}, false
	}
	ev := q[0].ev
	e := &w.tr.Events[ev]
	return noc.Packet{
		ID:    int64(ev),
		Src:   noc.PECoord(e.Src, w.width),
		Dst:   noc.PECoord(e.Dst, w.width),
		Gen:   q[0].readyAt,
		Event: ev,
	}, true
}

func (w *Workload) Injected(pe int, _ int64) { heap.Pop(&w.readyQ[pe]) }

func (w *Workload) Delivered(p noc.Packet, now int64) { w.complete(p.Event, now) }

func (w *Workload) ActivePEs(buf []int) []int {
	kept := w.live[:0]
	for _, pe := range w.live {
		if len(w.readyQ[pe]) == 0 {
			w.inLive[pe] = false
			continue
		}
		kept = append(kept, pe)
		buf = append(buf, pe)
	}
	w.live = kept
	return buf
}

func (w *Workload) Done() bool { return w.completed == len(w.tr.Events) }
