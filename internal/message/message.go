// Package message layers multi-packet messages on top of the single-packet
// NoCs: a message wider than the NoC datapath is serialized into
// ceil(size/width) packets at the source and is complete when its last
// packet arrives. This implements the paper's §VI-B observation that a
// 512-bit x86 cacheline crosses a 512-bit NoC as one packet but must be
// serialized on narrower datapaths — the routability/serialization tradeoff
// behind Fig 10.
package message

import (
	"fmt"

	"fasttrack/internal/noc"
	"fasttrack/internal/stats"
	"fasttrack/internal/xrand"
)

// Stream is a sim.Workload that generates fixed-size messages with
// Bernoulli arrivals and uniform-random destinations, serializing each into
// flits of the NoC's datapath width.
type Stream struct {
	w, h          int
	flitsPerMsg   int
	rate          float64
	quota         int // messages per PE
	rngs          []*xrand.Rand
	queues        [][]noc.Packet
	generated     []int
	totalPending  int
	donePEs       int
	nextMsg       int64
	remaining     map[int64]int   // flits still in flight per message
	msgGen        map[int64]int64 // generation cycle per message
	msgLatency    stats.Accumulator
	msgsDelivered int64
}

// NewStream builds a message workload. messageBits is the payload size
// (e.g. 512 for a cacheline); widthBits is the NoC datapath width.
func NewStream(w, h, messageBits, widthBits int, rate float64, quota int, seed uint64) (*Stream, error) {
	if messageBits <= 0 || widthBits <= 0 {
		return nil, fmt.Errorf("message: sizes must be positive (msg=%d, width=%d)", messageBits, widthBits)
	}
	flits := (messageBits + widthBits - 1) / widthBits
	n := w * h
	s := &Stream{
		w: w, h: h,
		flitsPerMsg: flits,
		rate:        rate,
		quota:       quota,
		rngs:        make([]*xrand.Rand, n),
		queues:      make([][]noc.Packet, n),
		generated:   make([]int, n),
		remaining:   make(map[int64]int),
		msgGen:      make(map[int64]int64),
	}
	root := xrand.New(seed)
	for pe := range s.rngs {
		s.rngs[pe] = root.SplitBy(uint64(pe))
	}
	return s, nil
}

// Tick implements sim.Workload.
func (s *Stream) Tick(now int64) {
	for pe := range s.rngs {
		if s.generated[pe] >= s.quota || !s.rngs[pe].Bool(s.rate) {
			continue
		}
		src := noc.PECoord(pe, s.w)
		var dst noc.Coord
		for {
			dst = noc.PECoord(s.rngs[pe].Intn(s.w*s.h), s.w)
			if dst != src {
				break
			}
		}
		s.nextMsg++
		msg := s.nextMsg
		s.remaining[msg] = s.flitsPerMsg
		s.msgGen[msg] = now
		for f := 0; f < s.flitsPerMsg; f++ {
			s.queues[pe] = append(s.queues[pe], noc.Packet{
				ID:    msg<<8 | int64(f),
				Src:   src,
				Dst:   dst,
				Gen:   now,
				Event: int32(msg), // message id for reassembly
			})
		}
		s.totalPending += s.flitsPerMsg
		s.generated[pe]++
		if s.generated[pe] == s.quota {
			s.donePEs++
		}
	}
}

// Pending implements sim.Workload.
func (s *Stream) Pending(pe int, _ int64) (noc.Packet, bool) {
	q := s.queues[pe]
	if len(q) == 0 {
		return noc.Packet{}, false
	}
	return q[0], true
}

// Injected implements sim.Workload.
func (s *Stream) Injected(pe int, _ int64) {
	q := s.queues[pe]
	copy(q, q[1:])
	s.queues[pe] = q[:len(q)-1]
	s.totalPending--
}

// Delivered implements sim.Workload: the message completes when its last
// flit lands.
func (s *Stream) Delivered(p noc.Packet, now int64) {
	msg := int64(p.Event)
	left, ok := s.remaining[msg]
	if !ok {
		return
	}
	if left--; left > 0 {
		s.remaining[msg] = left
		return
	}
	delete(s.remaining, msg)
	s.msgLatency.Add(float64(now - s.msgGen[msg]))
	delete(s.msgGen, msg)
	s.msgsDelivered++
}

// Done implements sim.Workload.
func (s *Stream) Done() bool {
	return s.donePEs == len(s.rngs) && s.totalPending == 0
}

// MessagesDelivered returns completed message count.
func (s *Stream) MessagesDelivered() int64 { return s.msgsDelivered }

// MessageLatency returns the message-completion latency accumulator.
func (s *Stream) MessageLatency() *stats.Accumulator { return &s.msgLatency }
