// Package fasttrack implements the FastTrack NoC from the ISCA 2018 paper:
// a Hoplite-style bufferless deflection-routed unidirectional torus augmented
// with express physical links that ride the FPGA's fast long-distance wiring
// to skip D router stages in a single clock cycle.
//
// A configuration is FT(N², D, R):
//
//	N — torus is N×N routers;
//	D — express link length in router hops (1 ≤ D ≤ N/2);
//	R — depopulation factor (1 ≤ R ≤ D, R | D): express entry points exist
//	    only at coordinates ≡ 0 (mod R), so D/R express tracks braid through
//	    every channel and (R-1) plain Hoplite routers sit between consecutive
//	    FastTrack routers.
//
// Router classes follow the paper's Fig 7 shading: Black routers carry
// express ports in both dimensions, Grey in one, White in none (plain
// Hoplite). Two microarchitectures are provided: VariantFull (the paper's
// FT (Full) router, Fig 9b — packets may upgrade from short to express links
// at any port) and VariantInject (FTlite (Inject), Fig 9c — packets choose a
// lane at injection and never cross).
package fasttrack

import (
	"fmt"

	"fasttrack/internal/noc"
)

// Variant selects the router microarchitecture.
type Variant uint8

const (
	// VariantFull is the fully-loaded FastTrack router (paper Fig 9b):
	// packets can hop onto an express link from any input port and upgrade
	// mid-flight; express-to-short transfers happen only at turns and exits.
	VariantFull Variant = iota
	// VariantInject is the FTlite (Inject) router (paper Fig 9c): packets
	// may enter the express plane only at the PE injection port and the two
	// planes never exchange packets.
	VariantInject
)

// String names the variant as in the paper.
func (v Variant) String() string {
	switch v {
	case VariantFull:
		return "FT(Full)"
	case VariantInject:
		return "FTlite(Inject)"
	}
	return fmt.Sprintf("Variant(%d)", uint8(v))
}

// Class is the per-router complexity shade of the paper's Fig 7.
type Class uint8

const (
	// ClassWhite routers are plain Hoplite switches with no express ports.
	ClassWhite Class = iota
	// ClassGreyX routers carry express ports in the X dimension only.
	ClassGreyX
	// ClassGreyY routers carry express ports in the Y dimension only.
	ClassGreyY
	// ClassBlack routers carry express ports in both dimensions.
	ClassBlack
)

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassWhite:
		return "white"
	case ClassGreyX:
		return "grey-x"
	case ClassGreyY:
		return "grey-y"
	case ClassBlack:
		return "black"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Topology is a validated FT(N², D, R) parameterization.
type Topology struct {
	N int // torus is N×N
	D int // express link length in hops
	R int // depopulation factor
}

// NewTopology validates the FT(N², D, R) parameters.
func NewTopology(n, d, r int) (Topology, error) {
	t := Topology{N: n, D: d, R: r}
	if n < 2 {
		return t, fmt.Errorf("fasttrack: N=%d too small (need N >= 2)", n)
	}
	if d < 1 || d > n/2 {
		return t, fmt.Errorf("fasttrack: D=%d out of range [1, N/2=%d]", d, n/2)
	}
	if r < 1 || r > d {
		return t, fmt.Errorf("fasttrack: R=%d out of range [1, D=%d]", r, d)
	}
	if d%r != 0 {
		return t, fmt.Errorf("fasttrack: R=%d must divide D=%d", r, d)
	}
	if n%r != 0 {
		// Express entry points sit at multiples of R; the braid only closes
		// around the ring when R divides N.
		return t, fmt.Errorf("fasttrack: R=%d must divide N=%d", r, n)
	}
	return t, nil
}

// HasXExpress reports whether the router at column x carries X-dimension
// express ports (an express input from column x-D and an output to x+D).
func (t Topology) HasXExpress(x int) bool { return x%t.R == 0 }

// HasYExpress reports whether the router at row y carries Y-dimension
// express ports.
func (t Topology) HasYExpress(y int) bool { return y%t.R == 0 }

// ClassAt returns the Fig 7 complexity class of router (x, y).
func (t Topology) ClassAt(x, y int) Class {
	hx, hy := t.HasXExpress(x), t.HasYExpress(y)
	switch {
	case hx && hy:
		return ClassBlack
	case hx:
		return ClassGreyX
	case hy:
		return ClassGreyY
	default:
		return ClassWhite
	}
}

// ExpressTracks returns the number of braided express tracks crossing any
// single channel segment: D/R.
func (t Topology) ExpressTracks() int { return t.D / t.R }

// WireFactor returns the ratio of wiring tracks per channel relative to a
// plain Hoplite torus: 1 short track plus D/R express tracks. FT(·,2,1) is
// iso-wiring with Hoplite-3x and FT(·,2,2) with Hoplite-2x, as in the
// paper's §IV-A and Fig 13/14.
func (t Topology) WireFactor() int { return 1 + t.ExpressTracks() }

// String renders the paper notation, e.g. "FT(64,2,1)".
func (t Topology) String() string { return fmt.Sprintf("FT(%d,%d,%d)", t.N*t.N, t.D, t.R) }

// Config describes a FastTrack network instance.
type Config struct {
	Topology Topology
	Variant  Variant
	// ExpressPipeline inserts this many extra register stages into every
	// express link (0 = single-cycle express, the paper's baseline). This
	// models the Stratix-10 Hyperflex discussion of §VII: pipelined
	// interconnect lets the NoC clock higher, but an express hop then
	// takes 1+ExpressPipeline cycles, trading end-to-end latency for
	// frequency.
	ExpressPipeline int
}

// Validate checks variant-specific constraints beyond NewTopology. The
// Inject variant confines packets to one lane for their whole flight, so an
// express packet deflected around a ring must land back on an aligned
// offset; that requires D | N.
func (c Config) Validate() error {
	if c.Variant == VariantInject && c.Topology.N%c.Topology.D != 0 {
		return fmt.Errorf("fasttrack: %s requires D | N (got D=%d, N=%d)",
			c.Variant, c.Topology.D, c.Topology.N)
	}
	if c.ExpressPipeline < 0 || c.ExpressPipeline > 8 {
		return fmt.Errorf("fasttrack: ExpressPipeline=%d out of range [0, 8]", c.ExpressPipeline)
	}
	return nil
}

// peCoordOf converts a PE index to its coordinate for an N-wide torus.
func peCoordOf(pe, n int) noc.Coord { return noc.PECoord(pe, n) }
