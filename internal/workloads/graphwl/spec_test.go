package graphwl

import (
	"testing"

	"fasttrack/internal/graphgen"
	"fasttrack/internal/trace"
)

// TestGenVersionPin pins the generator's output for the suite's smallest
// benchmark at the smallest Fig-15b size. Spec is only a safe cache key
// while equal specs mean equal traces, and GenVersion is the part of the
// spec that says "the generator changed".
func TestGenVersionPin(t *testing.T) {
	byName := map[string]Benchmark{}
	for _, b := range Benchmarks() {
		byName[b.Graph.Name] = b
	}
	for _, tc := range []struct {
		bench string
		w, h  int
		want  trace.Header
	}{
		{"wiki-Vote", 4, 4, trace.Header{Name: "graph/wiki-Vote", PEs: 16, Events: 10964, Fingerprint: 4715196052473435807}},
	} {
		b := byName[tc.bench]
		tr, err := Trace(b.Graph, b.PartitionFor(tc.w*tc.h), tc.w, tc.h, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Header(); got != tc.want {
			t.Errorf("%s %dx%d: header %+v, pinned %+v\ngenerator output changed: bump `GenVersion` (spec-keyed header memos would otherwise serve the old fingerprint)",
				tc.bench, tc.w, tc.h, got, tc.want)
		}
	}
}

// TestSpecSeparatesArguments: any argument that can change the trace changes
// the spec, and spelling a default out does not.
func TestSpecSeparatesArguments(t *testing.T) {
	g := graphgen.PreferentialAttachment("g", 400, 4, 7)
	part := graphgen.HashPartition(g.N, 16, 0xfeed)
	base := Spec(g, part, 4, 4, Options{})
	if got := Spec(g, part, 4, 4, Options{Supersteps: 2, ComputeDelay: 1}); got != base {
		t.Errorf("explicit defaults changed the spec: %q vs %q", got, base)
	}
	renamed := *g
	renamed.Name = "h"
	moved := append(graphgen.Partition(nil), part...)
	moved[17] ^= 1
	for name, other := range map[string]string{
		"graph name":       Spec(&renamed, part, 4, 4, Options{}),
		"graph size":       Spec(graphgen.PreferentialAttachment("g", 401, 4, 7), part, 4, 4, Options{}),
		"graph edges":      Spec(graphgen.PreferentialAttachment("g", 400, 5, 7), part, 4, 4, Options{}),
		"partition kind":   Spec(g, graphgen.GridPartition(g.N, 16), 4, 4, Options{}),
		"partition seed":   Spec(g, graphgen.HashPartition(g.N, 16, 0xbeef), 4, 4, Options{}),
		"partition vertex": Spec(g, moved, 4, 4, Options{}),
		"width":            Spec(g, part, 8, 4, Options{}),
		"height":           Spec(g, part, 4, 8, Options{}),
		"transposed":       Spec(g, part, 2, 8, Options{}),
		"supersteps":       Spec(g, part, 4, 4, Options{Supersteps: 3}),
		"delay":            Spec(g, part, 4, 4, Options{ComputeDelay: 2}),
	} {
		if other == base {
			t.Errorf("a different %s left the spec unchanged: %q", name, base)
		}
	}
}
