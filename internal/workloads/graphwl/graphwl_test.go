package graphwl

import (
	"testing"

	"fasttrack/internal/graphgen"
)

func TestTraceValid(t *testing.T) {
	g := graphgen.PreferentialAttachment("g", 1000, 5, 1)
	tr, err := Trace(g, graphgen.HashPartition(g.N, 16, 2), 4, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.PEs != 16 || len(tr.Events) == 0 {
		t.Errorf("bad trace shape: %d PEs, %d events", tr.PEs, len(tr.Events))
	}
}

func TestPartitionMismatchRejected(t *testing.T) {
	g := graphgen.PreferentialAttachment("g", 100, 3, 1)
	if _, err := Trace(g, graphgen.BlockPartition(50, 16), 4, 4, Options{}); err == nil {
		t.Error("partition length mismatch should be rejected")
	}
}

func TestRoadVsSocialTrafficVolume(t *testing.T) {
	// The road network under block partitioning produces far fewer
	// cross-PE messages per edge than a hash-partitioned social graph —
	// the structural fact behind the paper's roadNet-CA observation.
	road := graphgen.RoadGrid("road", 3600, 0.01, 3)
	social := graphgen.PreferentialAttachment("soc", 3600, 5, 4)
	rt, err := Trace(road, graphgen.GridPartition(road.N, 64), 8, 8, Options{Supersteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Trace(social, graphgen.HashPartition(social.N, 64, 5), 8, 8, Options{Supersteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	roadFrac := float64(len(rt.Events)) / float64(road.Edges())
	socialFrac := float64(len(st.Events)) / float64(social.Edges())
	if roadFrac > 0.5*socialFrac {
		t.Errorf("road cross fraction %.2f should be well below social %.2f", roadFrac, socialFrac)
	}
}

func TestBenchmarksGenerate(t *testing.T) {
	for _, b := range Benchmarks() {
		tr, err := Trace(b.Graph, b.PartitionFor(16), 4, 4, Options{Supersteps: 1})
		if err != nil {
			t.Errorf("%s: %v", b.Graph.Name, err)
			continue
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", b.Graph.Name, err)
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
	for _, b := range []Benchmark{Benchmarks()[0], Benchmarks()[4]} {
		for _, steps := range []int{1, 3} {
			var c growCheck
			if err := emit(&c, b.Graph, b.PartitionFor(64), 8, 8, Options{Supersteps: steps}); err != nil {
				t.Fatal(err)
			}
			if c.grownEvents != c.events || c.grownDeps != c.deps {
				t.Errorf("%s, %d supersteps: Grow(%d, %d), then %d events with %d deps", b.Graph.Name, steps, c.grownEvents, c.grownDeps, c.events, c.deps)
			}
		}
	}
}
