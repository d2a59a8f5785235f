package viz

import (
	"bytes"
	"strings"
	"testing"
)

func TestHeatmapRenders(t *testing.T) {
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(i)
	}
	vals[5] = -1 // missing cell
	var buf bytes.Buffer
	if err := Heatmap(&buf, "latency", 4, 4, vals); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "latency") || !strings.Contains(out, "scale:") {
		t.Errorf("missing title or legend:\n%s", out)
	}
	if !strings.Contains(out, "·") {
		t.Errorf("missing-cell marker not rendered:\n%s", out)
	}
	// Hottest cell uses the last ramp character.
	if !strings.Contains(out, "@") {
		t.Errorf("max value not rendered at top of ramp:\n%s", out)
	}
	// 4 data rows + header + title + legend.
	if lines := strings.Count(out, "\n"); lines != 7 {
		t.Errorf("expected 7 lines, got %d:\n%s", lines, out)
	}
}

func TestHeatmapValidation(t *testing.T) {
	if err := Heatmap(&bytes.Buffer{}, "x", 4, 4, make([]float64, 3)); err == nil {
		t.Error("size mismatch should error")
	}
	if err := Heatmap(&bytes.Buffer{}, "x", 2, 2, []float64{-1, -1, -1, -1}); err == nil {
		t.Error("all-missing grid should error")
	}
}

func TestHeatmapUniformValues(t *testing.T) {
	var buf bytes.Buffer
	if err := Heatmap(&buf, "flat", 2, 2, []float64{3, 3, 3, 3}); err != nil {
		t.Fatal(err)
	}
}
