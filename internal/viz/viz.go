// Package viz renders small text visualizations of NoC measurements for
// terminal use: per-PE heatmaps (e.g. mean source latency across the torus)
// shaded with a density ramp, with row/column scales and a legend.
package viz

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// ramp is the shading scale from cold to hot.
var ramp = []rune(" .:-=+*#%@")

// Heatmap renders a w×h grid of values (index y*w+x) as shaded cells.
// Negative values mark missing cells and render as '·'.
func Heatmap(w io.Writer, title string, width, height int, values []float64) error {
	if len(values) != width*height {
		return fmt.Errorf("viz: %d values for a %dx%d grid", len(values), width, height)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if v < 0 || math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return fmt.Errorf("viz: no data to render")
	}

	fmt.Fprintf(w, "%s  (min %.4g, max %.4g)\n", title, lo, hi)
	var b strings.Builder
	b.WriteString("    ")
	for x := 0; x < width; x++ {
		fmt.Fprintf(&b, "%d", x%10)
	}
	b.WriteByte('\n')
	for y := 0; y < height; y++ {
		fmt.Fprintf(&b, "%3d ", y)
		for x := 0; x < width; x++ {
			v := values[y*width+x]
			if v < 0 || math.IsNaN(v) {
				b.WriteRune('·')
				continue
			}
			b.WriteRune(shade(v, lo, hi))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "scale: '%c' = %.4g … '%c' = %.4g\n",
		ramp[0], lo, ramp[len(ramp)-1], hi)
	_, err := io.WriteString(w, b.String())
	return err
}

// shade maps v in [lo, hi] onto the ramp.
func shade(v, lo, hi float64) rune {
	if hi <= lo {
		return ramp[len(ramp)/2]
	}
	idx := int(float64(len(ramp)-1) * (v - lo) / (hi - lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ramp) {
		idx = len(ramp) - 1
	}
	return ramp[idx]
}
