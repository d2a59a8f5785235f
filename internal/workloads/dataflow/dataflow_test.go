package dataflow

import (
	"testing"

	"fasttrack/internal/matrixgen"
)

func TestTraceValidAndLatencyBound(t *testing.T) {
	m := matrixgen.Circuit("c", 600, 5, 1)
	tr, err := Trace(m, 8, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	st := tr.ComputeStats(8, 8)
	// A dataflow DAG from LU has a long critical path relative to its size
	// (low ILP): at least as long as the matrix's longest column chain.
	if st.CritPathLen < 10 {
		t.Errorf("critical path %d suspiciously short for LU", st.CritPathLen)
	}
	if st.SelfEvents == 0 {
		t.Error("LU trace should contain local compute events")
	}
}

// TestTokensFollowFactorization: every cross-PE message must carry a
// column result to a later column's owner.
func TestTokensFollowFactorization(t *testing.T) {
	m := matrixgen.Circuit("c", 300, 5, 2)
	tr, err := Trace(m, 4, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range tr.Events {
		if e.Src == e.Dst {
			continue // compute task
		}
		if len(e.Deps) != 1 {
			t.Fatalf("token event %d has %d deps, want 1 (the producing task)", i, len(e.Deps))
		}
		prod := tr.Events[e.Deps[0]]
		if prod.Dst != e.Src {
			t.Fatalf("token %d sourced at PE %d but producer ran on PE %d", i, e.Src, prod.Dst)
		}
	}
}

func TestComputeDelayLengthensSchedule(t *testing.T) {
	m := matrixgen.Circuit("c", 300, 5, 3)
	fast, err := Trace(m, 4, 4, Options{ComputeDelay: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Trace(m, 4, 4, Options{ComputeDelay: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Events) != len(slow.Events) {
		t.Fatal("delay must not change event structure")
	}
	var fd, sd int64
	for i := range fast.Events {
		fd += int64(fast.Events[i].Delay)
		sd += int64(slow.Events[i].Delay)
	}
	if sd <= fd {
		t.Error("larger compute delay should increase total delay")
	}
}

func TestBenchmarksGenerate(t *testing.T) {
	for _, m := range Benchmarks() {
		tr, err := Trace(m, 4, 4, Options{})
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
		for _, n := range []int{4, 16} {
			var c growCheck
			if err := emit(&c, m, matrixgen.SymbolicLU(m), n, n, Options{}); err != nil {
				t.Fatal(err)
			}
			if c.grownEvents != c.events || c.grownDeps != c.deps {
				t.Errorf("%s on %d×%d: Grow(%d, %d), then %d events with %d deps", m.Name, n, n, c.grownEvents, c.grownDeps, c.events, c.deps)
			}
		}
	}
}
