package trace_test

import (
	"runtime"
	"testing"
	"unsafe"

	"fasttrack/internal/matrixgen"
	"fasttrack/internal/trace"
	"fasttrack/internal/workloads/dataflow"
)

// TestReplayBuildAllocs pins the pooled-edge property of the replay
// constructor: dependents lists are carved from fixed-size chunks, so
// building the replay of a 50k-event LU trace costs a few hundred mallocs —
// one per chunk plus the fixed tables — not one per event (the per-event
// dependents slices this replaces cost 55,033).
func TestReplayBuildAllocs(t *testing.T) {
	tr, err := dataflow.Trace(dataflow.Benchmarks()[0], 16, 16, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) < 50_000 {
		t.Fatalf("%s has %d events; the gate wants ≥ 50,000", tr.Name, len(tr.Events))
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := trace.NewWorkload(tr, 16, 16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("NewWorkload on %d events: %.0f mallocs, want ≤ 1,000", len(tr.Events), allocs)
	}
}

// TestSizedBuildAllocBytes pins the sized path: dataflow calls Grow with
// its event and dependency counts before the first Add, so building the
// 50k-event 16×16 LU trace from its fill pattern allocates at most 1.3× the
// bytes the trace holds (1.08× measured: the task-index table and the
// Trace). Build hands the one chunk over; a copy would cost about 1.9×.
func TestSizedBuildAllocBytes(t *testing.T) {
	m := dataflow.Benchmarks()[0]
	fill := matrixgen.SymbolicLU(m)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := dataflow.TraceFill(m, fill, 16, 16, dataflow.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	kept := keptBytes(tr)
	if got := after.TotalAlloc - before.TotalAlloc; got*10 > kept*13 {
		t.Fatalf("building %d events from a fill pattern allocated %d B for a %d B trace (%.2f×), want ≤ 1.3×",
			len(tr.Events), got, kept, float64(got)/float64(kept))
	}
}

// keptBytes is what tr holds: its Events and dependency lists.
func keptBytes(tr *trace.Trace) uint64 {
	kept := uint64(len(tr.Events)) * uint64(unsafe.Sizeof(trace.Event{}))
	for _, e := range tr.Events {
		kept += uint64(len(e.Deps)) * uint64(unsafe.Sizeof(e.Deps[0]))
	}
	return kept
}

// TestBuilderAllocBytes pins the Builder's growth: adding a 50k-event LU
// trace allocates at most 2.2× the bytes the built trace holds (Events plus
// dependency lists): the chunks and arena it fills once, the exactly sized
// Events that Build copies them into, and at most one partly used chunk and
// block. A slice regrown by append costs about 5×.
func TestBuilderAllocBytes(t *testing.T) {
	tr, err := dataflow.Trace(dataflow.Benchmarks()[0], 16, 16, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kept := uint64(len(tr.Events)) * uint64(unsafe.Sizeof(trace.Event{}))
	for _, e := range tr.Events {
		kept += uint64(len(e.Deps)) * uint64(unsafe.Sizeof(e.Deps[0]))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := trace.NewBuilder(tr.Name, tr.PEs)
	for _, e := range tr.Events {
		b.Add(e.Src, e.Dst, e.Delay, e.Deps...)
	}
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got*10 > kept*22 {
		t.Fatalf("building %d events allocated %d B for a %d B trace (%.2f×), want ≤ 2.2×",
			len(tr.Events), got, kept, float64(got)/float64(kept))
	}
}
