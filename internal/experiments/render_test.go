package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// renderScale is the smallest scale at which every experiment, extensions
// included, still renders every row kind: two rates, the 8x8 points, one
// benchmark per trace suite.
func renderScale() Scale {
	return Scale{Quota: 30, Rates: []float64{0.1, 1.0}, MaxN: 8, TraceBenchmarks: 1, Seed: 3}
}

// renderAll renders every experiment, extensions included, in registry order.
func renderAll(t *testing.T, sc Scale) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range AllWithExtensions() {
		if err := e.Run(&buf, sc); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	return buf.Bytes()
}

// TestRenderedBytes pins the text of every table and figure at a small
// scale, byte for byte: a refactor of how figures are declared, scheduled or
// rendered must leave this file unchanged (regenerating it is a change of
// results and is reviewed as one).
func TestRenderedBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "render.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := renderAll(t, renderScale())
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("rendered figures differ from testdata/render.golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
