package overlay

import (
	"testing"

	"fasttrack/internal/trace"
)

// TestGenVersionPin pins the generator's output for the suite's smallest
// benchmark on a small grid. Spec is only a safe cache key while equal specs
// mean equal traces, and GenVersion is the part of the spec that says "the
// generator changed".
func TestGenVersionPin(t *testing.T) {
	byName := map[string]Benchmark{}
	for _, b := range Benchmarks() {
		byName[b.Name] = b
	}
	for _, tc := range []struct {
		bench        string
		w, h, active int
		seed         uint64
		want         trace.Header
	}{
		{"blacksholes", 4, 4, 8, 1, trace.Header{Name: "overlay/blacksholes", PEs: 16, Events: 384, Fingerprint: 2524429722270947973}},
	} {
		tr, err := Trace(byName[tc.bench], tc.w, tc.h, tc.active, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Header(); got != tc.want {
			t.Errorf("%s %dx%d: header %+v, pinned %+v\ngenerator output changed: bump `GenVersion` (spec-keyed header memos would otherwise serve the old fingerprint)",
				tc.bench, tc.w, tc.h, got, tc.want)
		}
	}
}

// TestSpecSeparatesArguments: any argument that can change the trace —
// every Benchmark field included — changes the spec.
func TestSpecSeparatesArguments(t *testing.T) {
	b := Benchmarks()[5] // x264 sets every mix weight
	base := Spec(b, 8, 8, 32, 1)
	with := func(edit func(*Benchmark)) string {
		c := b
		edit(&c)
		return Spec(c, 8, 8, 32, 1)
	}
	for name, other := range map[string]string{
		"name":          with(func(c *Benchmark) { c.Name = "y" }),
		"local":         with(func(c *Benchmark) { c.Local += 0.1 }),
		"pipeline":      with(func(c *Benchmark) { c.Pipeline += 0.1 }),
		"uniform":       with(func(c *Benchmark) { c.Uniform += 0.1 }),
		"hotspot":       with(func(c *Benchmark) { c.Hotspot += 0.1 }),
		"chains":        with(func(c *Benchmark) { c.Chains++ }),
		"chain length":  with(func(c *Benchmark) { c.ChainLen++ }),
		"stride":        with(func(c *Benchmark) { c.Stride++ }),
		"compute scale": with(func(c *Benchmark) { c.ComputeScale++ }),
		"width":         Spec(b, 16, 8, 32, 1),
		"height":        Spec(b, 8, 16, 32, 1),
		"transposed":    Spec(b, 4, 16, 32, 1),
		"active PEs":    Spec(b, 8, 8, 16, 1),
		"seed":          Spec(b, 8, 8, 32, 2),
	} {
		if other == base {
			t.Errorf("a different %s left the spec unchanged: %q", name, base)
		}
	}
}
