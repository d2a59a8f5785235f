package spmv

import (
	"testing"

	"fasttrack/internal/matrixgen"
)

func TestTraceValidAndSized(t *testing.T) {
	m := matrixgen.Circuit("t", 1000, 6, 1)
	tr, err := Trace(m, 8, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.PEs != 64 {
		t.Errorf("PEs %d", tr.PEs)
	}
	if len(tr.Events) < 100 {
		t.Errorf("suspiciously small trace: %d events", len(tr.Events))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIterationsScaleEvents(t *testing.T) {
	m := matrixgen.Circuit("t", 800, 6, 2)
	t1, err := Trace(m, 4, 4, Options{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Trace(m, 4, 4, Options{Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Events) < 2*len(t1.Events) {
		t.Errorf("3 iterations (%d events) should be ≫ 1 iteration (%d)", len(t3.Events), len(t1.Events))
	}
}

// TestBarrierDependencies: every second-iteration message from a PE that
// received data must depend (transitively via the barrier) on that PE's
// first-iteration deliveries.
func TestBarrierDependencies(t *testing.T) {
	m := matrixgen.Circuit("t", 600, 6, 3)
	tr, err := Trace(m, 4, 4, Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Find barrier events (self messages with deps).
	barriers := 0
	for _, e := range tr.Events {
		if e.Src == e.Dst && len(e.Deps) > 0 {
			barriers++
			for _, d := range e.Deps {
				if tr.Events[d].Dst != e.Src {
					t.Fatalf("barrier at PE %d depends on a delivery to PE %d", e.Src, tr.Events[d].Dst)
				}
			}
		}
	}
	if barriers == 0 {
		t.Error("no barrier events in a 2-iteration trace")
	}
}

func TestLocalMatrixYieldsNoTraffic(t *testing.T) {
	// A tightly banded matrix on many PEs still crosses block boundaries a
	// little; but on ONE row of PEs per whole matrix (1 PE per ~all rows)
	// everything is local and generation must fail loudly.
	m := matrixgen.Banded("local", 64, 1, 0, 4)
	if _, err := Trace(m, 2, 2, Options{}); err == nil {
		// 64 rows over 4 PEs with band 1: only boundary rows cross — that
		// is still traffic, so this must succeed instead.
		return
	}
	// Either outcome is acceptable above; the hard requirement is the
	// error case for a diagonal matrix.
	d := matrixgen.Banded("diag", 64, 0, 0, 5)
	if _, err := Trace(d, 2, 2, Options{}); err == nil {
		t.Error("purely diagonal matrix should produce a no-traffic error")
	}
}

func TestBenchmarksGenerate(t *testing.T) {
	for _, m := range Benchmarks() {
		tr, err := Trace(m, 4, 4, Options{Iterations: 1})
		if err != nil {
			t.Errorf("%s: %v", m.Name, err)
			continue
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

// growCheck is a trace.Adder that records the counts emit announces with
// Grow and the events it then adds.
type growCheck struct{ grownEvents, grownDeps, events, deps int }

func (c *growCheck) Add(src, dst int, delay int32, deps ...int32) int32 {
	c.events++
	c.deps += len(deps)
	return int32(c.events - 1)
}
func (c *growCheck) Grow(events, deps int) { c.grownEvents += events; c.grownDeps += deps }
func (c *growCheck) Len() int              { return c.events }

// TestGrowCountsExact: emit announces exactly the events and dependency
// entries it adds, so Build hands its one chunk over uncopied.
func TestGrowCountsExact(t *testing.T) {
	for _, m := range Benchmarks()[:2] {
		for _, it := range []int{1, 3} {
			var c growCheck
			if err := emit(&c, m, 8, 8, Options{Iterations: it}); err != nil {
				t.Fatal(err)
			}
			if c.grownEvents != c.events || c.grownDeps != c.deps {
				t.Errorf("%s, %d iterations: Grow(%d, %d), then %d events with %d deps", m.Name, it, c.grownEvents, c.grownDeps, c.events, c.deps)
			}
		}
	}
}
