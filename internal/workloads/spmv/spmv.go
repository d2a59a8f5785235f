// Package spmv turns a sparse matrix into the communication trace of an
// iterative sparse matrix-vector multiply accelerator (the paper's Fig 15a
// case study, used by many deep-learning kernels).
//
// Rows are block-partitioned across PEs. Computing y = A·x requires each PE
// to fetch x[c] for every column c appearing in its rows; the PE owning
// x[c] sends one message per (producer PE → consumer PE, c) pair. Across
// iterations a per-PE barrier event models the local accumulate/update
// before the next round's x values are published — a throughput-bound
// pattern with light dependencies, exactly as characterized in §VI.
package spmv

import (
	"fmt"
	"io"

	"fasttrack/internal/matrixgen"
	"fasttrack/internal/trace"
)

// Options tunes trace generation.
type Options struct {
	// Iterations is the number of y = A·x rounds (default 2).
	Iterations int
	// ComputeDelay is the modeled PE cycles to produce a value (default 2).
	ComputeDelay int32
}

func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 2
	}
	if o.ComputeDelay == 0 {
		o.ComputeDelay = 2
	}
	return o
}

// Trace builds the SpMV communication trace for matrix m on a w×h PE grid.
func Trace(m *matrixgen.Matrix, w, h int, opts Options) (*trace.Trace, error) {
	b := trace.NewBuilder(name(m), w*h)
	if err := emit(b, m, w, h, opts); err != nil {
		return nil, err
	}
	return b.Build()
}

// GenVersion is bumped whenever Trace can emit different events for the same
// arguments: sweeps memoize trace headers by Spec (see TestGenVersionPin).
const GenVersion = 1

// Spec names everything Trace's output depends on, without generating it.
func Spec(m *matrixgen.Matrix, w, h int, opts Options) string {
	opts = opts.withDefaults()
	return fmt.Sprintf("spmv/v%d %s n=%d nnz=%d grid=%dx%d iter=%d delay=%d",
		GenVersion, m.Name, m.N, m.NNZ(), w, h, opts.Iterations, opts.ComputeDelay)
}

// WriteTo streams the same trace, event for event, to dst as an FTT1 file
// without materializing it; the returned header's fingerprint equals
// Trace(...).Fingerprint() for identical inputs.
func WriteTo(m *matrixgen.Matrix, w, h int, opts Options, dst io.WriteSeeker) (trace.Header, error) {
	bw, err := trace.NewWriter(dst, name(m), w*h)
	if err != nil {
		return trace.Header{}, err
	}
	if err := emit(bw, m, w, h, opts); err != nil {
		return trace.Header{}, err
	}
	if err := bw.Close(); err != nil {
		return trace.Header{}, err
	}
	return bw.Header(), nil
}

func name(m *matrixgen.Matrix) string { return fmt.Sprintf("spmv/%s", m.Name) }

// emit generates the event stream into any trace.Adder — the in-memory
// Builder and the streaming Writer share this code, which is what keeps the
// two paths fingerprint-identical.
func emit(b trace.Adder, m *matrixgen.Matrix, w, h int, opts Options) error {
	opts = opts.withDefaults()
	pes := w * h
	per := (m.N + pes - 1) / pes
	owner := func(row int32) int {
		p := int(row) / per
		if p >= pes {
			p = pes - 1
		}
		return p
	}

	// Unique (producer, consumer, column) messages of one iteration.
	type msg struct{ src, dst int }
	seen := map[[3]int32]struct{}{}
	var msgs []msg
	for r := 0; r < m.N; r++ {
		dst := owner(int32(r))
		for _, c := range m.Row(r) {
			src := owner(c)
			if src == dst {
				continue
			}
			key := [3]int32{int32(src), int32(dst), c}
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = struct{}{}
			msgs = append(msgs, msg{src: src, dst: dst})
		}
	}
	if len(msgs) == 0 {
		return fmt.Errorf("spmv: matrix %s produces no cross-PE traffic on %d PEs", m.Name, pes)
	}

	// incoming[p] collects the previous round's deliveries to PE p.
	// Every round sends msgs. Each later one adds a barrier per receiving
	// PE, waiting on the messages it received, and gates that PE's sends.
	recv := make([]bool, pes)
	barriers, gated := 0, 0
	for _, msg := range msgs {
		if !recv[msg.dst] {
			recv[msg.dst] = true
			barriers++
		}
	}
	for _, msg := range msgs {
		if recv[msg.src] {
			gated++
		}
	}
	later := opts.Iterations - 1
	b.Grow(opts.Iterations*len(msgs)+later*barriers, later*(len(msgs)+gated))

	incoming := make([][]int32, pes)
	var deps []int32 // reused: Add does not retain deps
	for it := 0; it < opts.Iterations; it++ {
		// Barrier: each sending PE waits for everything it consumed last
		// round before publishing new x values.
		barrier := make(map[int]int32)
		if it > 0 {
			for p := 0; p < pes; p++ {
				if len(incoming[p]) > 0 {
					barrier[p] = b.Add(p, p, opts.ComputeDelay, incoming[p]...)
				}
			}
		}
		next := make([][]int32, pes)
		for k, msg := range msgs {
			deps = deps[:0]
			if bar, ok := barrier[msg.src]; ok {
				deps = append(deps, bar)
			}
			// Light source-side stagger models sequential value production.
			delay := opts.ComputeDelay + int32(k%7)
			ev := b.Add(msg.src, msg.dst, delay, deps...)
			next[msg.dst] = append(next[msg.dst], ev)
		}
		incoming = next
	}
	return nil
}

// Benchmarks returns synthetic stand-ins for the paper's Fig 15a Matrix
// Market suite, preserving each benchmark's structural archetype at a
// simulation-friendly scale.
func Benchmarks() []*matrixgen.Matrix {
	return []*matrixgen.Matrix{
		matrixgen.Circuit("add20", 2395, 7, 101),
		matrixgen.Banded("hamm_memplus", 3200, 3, 0.05, 102),
		matrixgen.Circuit("bomhof_circuit_1", 2624, 9, 103),
		matrixgen.Circuit("bomhof_circuit_2", 4510, 5, 104),
		matrixgen.Circuit("bomhof_circuit_3", 4096, 8, 105),
		matrixgen.PowerLaw("human_gene2", 2500, 12, 1.1, 106),
		matrixgen.Circuit("sandia_12944", 3296, 8, 107),
		matrixgen.Banded("simucad_ram2k", 2048, 4, 0.10, 108),
		matrixgen.Circuit("simucad_dac", 2409, 6, 109),
	}
}
