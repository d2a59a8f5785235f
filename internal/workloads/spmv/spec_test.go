package spmv

import (
	"testing"

	"fasttrack/internal/matrixgen"
	"fasttrack/internal/trace"
)

// TestGenVersionPin pins the generator's output for the suite's smallest
// benchmarks at the smallest Fig-15a size. Spec is only a safe cache key
// while equal specs mean equal traces, and GenVersion is the part of the
// spec that says "the generator changed".
func TestGenVersionPin(t *testing.T) {
	byName := map[string]*matrixgen.Matrix{}
	for _, m := range Benchmarks() {
		byName[m.Name] = m
	}
	for _, tc := range []struct {
		bench string
		w, h  int
		want  trace.Header
	}{
		{"simucad_ram2k", 2, 2, trace.Header{Name: "spmv/simucad_ram2k", PEs: 4, Events: 88, Fingerprint: 8994850339870546548}},
		{"add20", 2, 2, trace.Header{Name: "spmv/add20", PEs: 4, Events: 680, Fingerprint: 1000858218385596013}},
	} {
		tr, err := Trace(byName[tc.bench], tc.w, tc.h, Options{})
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
	m := matrixgen.Circuit("t", 800, 6, 2)
	base := Spec(m, 4, 4, Options{})
	if got := Spec(m, 4, 4, Options{Iterations: 2, ComputeDelay: 2}); got != base {
		t.Errorf("explicit defaults changed the spec: %q vs %q", got, base)
	}
	renamed := *m
	renamed.Name = "u"
	for name, other := range map[string]string{
		"matrix name": Spec(&renamed, 4, 4, Options{}),
		"matrix size": Spec(matrixgen.Circuit("t", 801, 6, 2), 4, 4, Options{}),
		"matrix nnz":  Spec(matrixgen.Circuit("t", 800, 7, 2), 4, 4, Options{}),
		"width":       Spec(m, 8, 4, Options{}),
		"height":      Spec(m, 4, 8, Options{}),
		"transposed":  Spec(m, 2, 8, Options{}),
		"iterations":  Spec(m, 4, 4, Options{Iterations: 3}),
		"delay":       Spec(m, 4, 4, Options{ComputeDelay: 3}),
	} {
		if other == base {
			t.Errorf("a different %s left the spec unchanged: %q", name, base)
		}
	}
}
