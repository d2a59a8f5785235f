package trace_test

import (
	"testing"

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
