// Package dataflow turns the symbolic LU factorization of a sparse circuit
// matrix into a Token Dataflow communication trace (the paper's Fig 15c
// case study, after Kapre & DeHon's FPGA SPICE solver). One task factors
// one matrix column; a task fires only after receiving the factor
// contributions of every earlier column that updates it. The resulting DAG
// has notoriously low ILP — the workload is latency-bound, so the NoC's
// per-message latency (not bandwidth) sets completion time.
package dataflow

import (
	"fmt"
	"io"

	"fasttrack/internal/matrixgen"
	"fasttrack/internal/trace"
)

// Options tunes trace generation.
type Options struct {
	// ComputeDelay is the modeled cycles for a column update (default 12 —
	// a sparse column factorization is a multiply-accumulate loop, so PE
	// compute serialization dilutes the NoC's share of the critical path,
	// which is why the paper's LU speedups top out around 1.4×).
	ComputeDelay int32
}

func (o Options) withDefaults() Options {
	if o.ComputeDelay == 0 {
		o.ComputeDelay = 12
	}
	return o
}

// Trace builds the token-dataflow LU trace for matrix m on a w×h PE grid.
// Columns are scattered across PEs (owner = column mod PEs), the standard
// token-dataflow mapping that exposes whatever parallelism the DAG has.
func Trace(m *matrixgen.Matrix, w, h int, opts Options) (*trace.Trace, error) {
	return TraceFill(m, matrixgen.SymbolicLU(m), w, h, opts)
}

// TraceFill is Trace with m's fill pattern, matrixgen.SymbolicLU(m), already
// computed, so a caller that builds m's trace for several grids computes it
// once. fill is only read.
func TraceFill(m *matrixgen.Matrix, fill [][]int32, w, h int, opts Options) (*trace.Trace, error) {
	if len(fill) != m.N {
		return nil, fmt.Errorf("dataflow: fill pattern has %d columns, %s has %d", len(fill), m.Name, m.N)
	}
	b := trace.NewBuilder(name(m), w*h)
	if err := emit(b, m, fill, w, h, opts); err != nil {
		return nil, err
	}
	return b.Build()
}

// GenVersion is bumped whenever Trace can emit different events for the same
// arguments: sweeps memoize trace headers by Spec (see TestGenVersionPin).
const GenVersion = 1

// Spec names everything Trace's output depends on, without generating it.
func Spec(m *matrixgen.Matrix, w, h int, opts Options) string {
	return fmt.Sprintf("lu/v%d %s n=%d nnz=%d grid=%dx%d delay=%d",
		GenVersion, m.Name, m.N, m.NNZ(), w, h, opts.withDefaults().ComputeDelay)
}

// WriteTo streams the same trace, event for event, to dst as an FTT1 file
// without materializing it; the returned header's fingerprint equals
// Trace(...).Fingerprint() for identical inputs.
func WriteTo(m *matrixgen.Matrix, w, h int, opts Options, dst io.WriteSeeker) (trace.Header, error) {
	bw, err := trace.NewWriter(dst, name(m), w*h)
	if err != nil {
		return trace.Header{}, err
	}
	if err := emit(bw, m, matrixgen.SymbolicLU(m), w, h, opts); err != nil {
		return trace.Header{}, err
	}
	if err := bw.Close(); err != nil {
		return trace.Header{}, err
	}
	return bw.Header(), nil
}

func name(m *matrixgen.Matrix) string { return fmt.Sprintf("lu/%s", m.Name) }

// emit generates the event stream of m, whose fill pattern is deps, into
// any trace.Adder (shared by the in-memory and streaming paths; see
// spmv.emit).
func emit(b trace.Adder, m *matrixgen.Matrix, deps [][]int32, w, h int, opts Options) error {
	opts = opts.withDefaults()
	pes := w * h
	owner := func(col int) int { return col % pes }

	// A task per column, waiting on one entry per dependency, and a token
	// with one dependency per dependency that crosses PEs.
	depN, crossMsgs := 0, 0
	for k, dk := range deps {
		depN += len(dk)
		for _, j := range dk {
			if owner(int(j)) != owner(k) {
				crossMsgs++
			}
		}
	}
	if crossMsgs == 0 {
		return fmt.Errorf("dataflow: %s generates no cross-PE tokens on %d PEs", m.Name, pes)
	}
	b.Grow(m.N+crossMsgs, depN+crossMsgs)

	compute := make([]int32, m.N) // event index of each column's task
	var taskDeps []int32          // reused: Add does not retain deps
	for k := 0; k < m.N; k++ {
		dst := owner(k)
		taskDeps = taskDeps[:0]
		for _, j := range deps[k] {
			src := owner(int(j))
			if src == dst {
				// Local dependency: the task just waits on the producer.
				taskDeps = append(taskDeps, compute[j])
				continue
			}
			// Remote dependency: the producer's PE sends a token.
			msg := b.Add(src, dst, 1, compute[j])
			taskDeps = append(taskDeps, msg)
		}
		compute[k] = b.Add(dst, dst, opts.ComputeDelay, taskDeps...)
	}
	return nil
}

// Benchmarks returns synthetic stand-ins for the paper's Fig 15c LU
// factorization suite (SPICE circuit matrices named roughly
// <circuit>_<nodes>_<edges> in the paper).
func Benchmarks() []*matrixgen.Matrix {
	return []*matrixgen.Matrix{
		matrixgen.Circuit("s953_4568", 953, 5, 301),
		matrixgen.Circuit("s953_3197", 953, 4, 302),
		matrixgen.Circuit("s1494_9156", 1494, 6, 303),
		matrixgen.Circuit("s1488_4872", 1488, 4, 304),
		matrixgen.Circuit("s1423_6648", 1423, 5, 305),
		matrixgen.Circuit("s1423_2582", 1423, 3, 306),
		matrixgen.Banded("ram8k_10823", 1600, 2, 0.08, 307),
		matrixgen.Circuit("bomhof3_10656", 1800, 6, 308),
	}
}
