package fabric

import (
	"fmt"

	"fasttrack/internal/noc"
)

// Arena carves per-instance arrays out of shared batch-major slabs: one
// backing allocation per element type, with instance i's arrays occupying
// the i-th contiguous region. A nil arena (the per-job path) degrades to
// plain allocation, and an exhausted slab does too — layout is an
// optimization, never a correctness dependency.
type Arena struct {
	int32s  []int32
	packets []noc.Packet
	words   []uint64
	slots   []Slot
	bools   []bool
}

// carve cuts the next n elements off slab.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		return make([]T, n)
	}
	r := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return r
}

// Int32s returns n registers from the arena; a family carves the per-router
// state it keeps beside the kernel's (express pipeline stages) with it.
func (a *Arena) Int32s(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return carve(&a.int32s, n)
}

// Instance is what a Batch needs from a family's network.
type Instance interface {
	noc.Network
	Reset()
}

// Batch is B independent instances of one family and geometry, with the
// sparse hot-path state (register planes, packet pools, occupancy bitsets,
// offer and accepted arrays) laid out batch-major in shared slabs. Each
// instance is an ordinary network of its family: the lockstep driver steps
// them with the same Step code the per-job path runs, which is what makes
// batched results bit-identical.
type Batch struct {
	insts []Instance
}

// NewBatch builds b instances by calling mk with one arena sized for b
// kernels of spec; mk must pass the arena to Kernel.Init.
func NewBatch(spec Spec, b int, mk func(*Arena) (Instance, error)) (*Batch, error) {
	if b < 1 {
		return nil, fmt.Errorf("fabric: batch size %d < 1", b)
	}
	n := spec.W * spec.H
	words := (n + 63) / 64
	regs := 2 * spec.Planes * n
	bits := 2 * words // curBits + shard 0's next
	if spec.Stages > 0 {
		regs += (2*spec.Stages + 2) * n // both links' stages + their pending registers
		bits += words                   // shard 0's keep
	}
	ar := &Arena{
		int32s:  make([]int32, b*regs),
		words:   make([]uint64, b*bits),
		slots:   make([]Slot, b*n),
		bools:   make([]bool, b*n),
		packets: make([]noc.Packet, b*PoolBound(spec.Planes, spec.Stages, n)),
	}
	bt := &Batch{insts: make([]Instance, b)}
	for i := range bt.insts {
		nw, err := mk(ar)
		if err != nil {
			return nil, err
		}
		bt.insts[i] = nw
	}
	return bt, nil
}

// Size returns the instance count.
func (bt *Batch) Size() int { return len(bt.insts) }

// Instance returns the i-th network.
func (bt *Batch) Instance(i int) Instance { return bt.insts[i] }

// Reset idles every instance for the next job, keeping all slabs.
func (bt *Batch) Reset() {
	for _, nw := range bt.insts {
		nw.Reset()
	}
}
