package trace

// NewWorkload prepares the in-memory trace tr for replay on a width×height
// network, whose PE count must equal tr.PEs: a Stream over tr's events with
// the window off — every event is resident before the first cycle, so
// reading never stalls. The events are checked as they are admitted, inside
// this call (see Stream.admit), so an invalid trace is rejected here.
func NewWorkload(tr *Trace, width, height int) (*Stream, error) {
	return newStream(tr, tr.shape(), width, height, len(tr.Events))
}

// item pairs an event index with the cycle it becomes injectable.
type item struct {
	ev      int32
	readyAt int64
}

type eventHeap []item

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h eventHeap) Less(i, j int) bool {
	if h[i].readyAt != h[j].readyAt {
		return h[i].readyAt < h[j].readyAt
	}
	return h[i].ev < h[j].ev
}

// pushItem and popItem are typed equivalents of container/heap's Push and
// Pop, avoiding an interface allocation per event on the replay hot path.
// Less is a strict total order (ev tiebreak), so pop order does not depend
// on push order.
func (h *eventHeap) pushItem(it item) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.Less(i, parent) {
			break
		}
		q.Swap(i, parent)
		i = parent
	}
}

func (h *eventHeap) popItem() item {
	q := *h
	n := len(q) - 1
	q.Swap(0, n)
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q.Less(r, l) {
			j = r
		}
		if !q.Less(j, i) {
			break
		}
		q.Swap(i, j)
		i = j
	}
	it := q[n]
	*h = q[:n]
	return it
}
