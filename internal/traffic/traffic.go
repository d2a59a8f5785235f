// Package traffic provides the synthetic statistical workloads of the
// paper's §VI: RANDOM, LOCAL, BITCOMPL and TRANSPOSE patterns with
// Bernoulli packet generation at a configurable injection rate and a fixed
// packet quota per PE (the paper uses 1K packets/PE).
package traffic

import (
	"fmt"
	"strings"

	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// Pattern maps a source PE to a destination for each generated packet.
type Pattern interface {
	// Dest picks the destination for a packet from src on a w×h torus. ok
	// is false when the pattern generates no traffic from src (for example
	// the diagonal of TRANSPOSE).
	Dest(src noc.Coord, w, h int, rng *xrand.Rand) (dst noc.Coord, ok bool)
	// Name is the paper's label (RANDOM, LOCAL, ...).
	Name() string
}

// DimValidator is optionally implemented by patterns that only make sense
// on certain torus dimensions (for example BitComplement requires powers of
// two). Instantiation sites call ValidateDims before running a sweep.
type DimValidator interface {
	// ValidateDims reports whether the pattern is well defined on w×h.
	ValidateDims(w, h int) error
}

// ValidateDims checks p against the w×h torus if it cares about dimensions.
func ValidateDims(p Pattern, w, h int) error {
	if v, ok := p.(DimValidator); ok {
		return v.ValidateDims(w, h)
	}
	return nil
}

// SilenceClassifier is optionally implemented by patterns with sources that
// never generate traffic (for example the TRANSPOSE diagonal). Silence must
// be a deterministic property of the source coordinate: workload setup
// consults it instead of sampling Dest, so a stochastic pattern that returns
// !ok on one unlucky draw is never mistaken for a permanently mute PE — a
// transient !ok just skips that cycle's generation.
type SilenceClassifier interface {
	// Silent reports whether src never sources traffic on a w×h torus.
	Silent(src noc.Coord, w, h int) bool
}

// Silent reports whether p declares src permanently silent. Patterns that do
// not implement SilenceClassifier are assumed to source from every PE.
func Silent(p Pattern, src noc.Coord, w, h int) bool {
	if c, ok := p.(SilenceClassifier); ok {
		return c.Silent(src, w, h)
	}
	return false
}

// Random is uniform-random traffic over all other PEs.
type Random struct{}

// Name implements Pattern.
func (Random) Name() string { return "RANDOM" }

// Dest implements Pattern.
func (Random) Dest(src noc.Coord, w, h int, rng *xrand.Rand) (noc.Coord, bool) {
	for {
		d := noc.Coord{X: rng.Intn(w), Y: rng.Intn(h)}
		if d != src {
			return d, true
		}
	}
}

// Local is uniform traffic within a Manhattan-distance neighbourhood. The
// torus distance used is directional (east/south ring distance), matching
// what "local" means on a unidirectional torus: destinations a short
// forward hop away. The neighbourhood reaches max(1, w/4) hops east and
// max(1, h/4) south, so a rectangular torus keeps its Y destinations local
// instead of inheriting the wider dimension's reach.
type Local struct{}

// Name implements Pattern.
func (Local) Name() string { return "LOCAL" }

// Dest implements Pattern.
func (Local) Dest(src noc.Coord, w, h int, rng *xrand.Rand) (noc.Coord, bool) {
	rx, ry := max(1, w/4), max(1, h/4)
	for {
		dx := rng.Intn(rx + 1)
		dy := rng.Intn(ry + 1)
		if dx == 0 && dy == 0 {
			continue
		}
		return noc.Coord{X: (src.X + dx) % w, Y: (src.Y + dy) % h}, true
	}
}

// BitComplement sends every packet to the PE whose coordinate bits are the
// complement of the source's — a worst-case global pattern. Dimensions must
// be powers of two.
type BitComplement struct{}

// Name implements Pattern.
func (BitComplement) Name() string { return "BITCOMPL" }

// Dest implements Pattern.
func (BitComplement) Dest(src noc.Coord, w, h int, _ *xrand.Rand) (noc.Coord, bool) {
	d := noc.Coord{X: ^src.X & (w - 1), Y: ^src.Y & (h - 1)}
	if d == src {
		return d, false
	}
	return d, true
}

// ValidateDims implements DimValidator: the bit masking in Dest is only a
// permutation of the PE grid when both dimensions are powers of two; on a
// 6×6 torus it would silently alias destinations off-grid.
func (BitComplement) ValidateDims(w, h int) error {
	if w < 1 || w&(w-1) != 0 || h < 1 || h&(h-1) != 0 {
		return fmt.Errorf("traffic: BITCOMPL requires power-of-two dimensions, got %dx%d", w, h)
	}
	return nil
}

// Silent implements SilenceClassifier: a source is mute only where the
// complement permutation has a fixed point (1×1 degenerate tori).
func (BitComplement) Silent(src noc.Coord, w, h int) bool {
	return (noc.Coord{X: ^src.X & (w - 1), Y: ^src.Y & (h - 1)}) == src
}

// Transpose sends (x, y) to (y, x); the diagonal stays silent.
type Transpose struct{}

// Name implements Pattern.
func (Transpose) Name() string { return "TRANSPOSE" }

// Dest implements Pattern.
func (Transpose) Dest(src noc.Coord, w, h int, _ *xrand.Rand) (noc.Coord, bool) {
	if src.X == src.Y {
		return src, false
	}
	return noc.Coord{X: src.Y % w, Y: src.X % h}, true
}

// Silent implements SilenceClassifier: the diagonal maps to itself.
func (Transpose) Silent(src noc.Coord, _, _ int) bool { return src.X == src.Y }

// Tornado sends each packet halfway around the X ring — an adversarial
// pattern for ring networks, included beyond the paper's four for ablation.
type Tornado struct{}

// Name implements Pattern.
func (Tornado) Name() string { return "TORNADO" }

// Dest implements Pattern.
func (Tornado) Dest(src noc.Coord, w, h int, _ *xrand.Rand) (noc.Coord, bool) {
	return noc.Coord{X: (src.X + w/2) % w, Y: src.Y}, true
}

// Hotspot sends a fraction of traffic to a single hot PE and the rest
// uniformly — used by the failure-injection and livelock property tests.
type Hotspot struct {
	// Hot is the hotspot destination.
	Hot noc.Coord
	// Fraction of packets aimed at Hot (default 0.5 when zero).
	Fraction float64
}

// Name implements Pattern.
func (Hotspot) Name() string { return "HOTSPOT" }

// Dest implements Pattern.
func (p Hotspot) Dest(src noc.Coord, w, h int, rng *xrand.Rand) (noc.Coord, bool) {
	f := p.Fraction
	if f == 0 {
		f = 0.5
	}
	if src != p.Hot && rng.Bool(f) {
		return p.Hot, true
	}
	return Random{}.Dest(src, w, h, rng)
}

// ByName returns the pattern for a paper label (case-insensitive).
func ByName(name string) (Pattern, error) {
	switch strings.ToUpper(name) {
	case "RANDOM":
		return Random{}, nil
	case "LOCAL":
		return Local{}, nil
	case "BITCOMPL", "BITCOMPLEMENT":
		return BitComplement{}, nil
	case "TRANSPOSE":
		return Transpose{}, nil
	case "TORNADO":
		return Tornado{}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}

// Patterns returns the paper's four synthetic patterns in figure order.
func Patterns() []Pattern {
	return []Pattern{BitComplement{}, Local{}, Random{}, Transpose{}}
}
