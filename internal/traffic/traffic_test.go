package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"RANDOM", "local", "BitCompl", "TRANSPOSE", "TORNADO"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown pattern should error")
	}
}

// TestPatternDestinationsInRange fuzzes every pattern: destinations must be
// on the torus, and ok=false only where documented.
func TestPatternDestinationsInRange(t *testing.T) {
	rng := xrand.New(1)
	for _, p := range append(Patterns(), Tornado{}, Hotspot{Hot: noc.Coord{X: 1, Y: 1}}) {
		f := func(sx, sy uint8) bool {
			w, h := 8, 8
			src := noc.Coord{X: int(sx) % w, Y: int(sy) % h}
			dst, ok := p.Dest(src, w, h, rng)
			if !ok {
				// Only fixed permutations may be silent, on their diagonal.
				switch p.(type) {
				case Transpose:
					return src.X == src.Y
				case BitComplement:
					return false // never silent on even-sized torus
				default:
					return false
				}
			}
			return dst.X >= 0 && dst.X < w && dst.Y >= 0 && dst.Y < h
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

func TestRandomNeverSelf(t *testing.T) {
	rng := xrand.New(2)
	for i := 0; i < 10000; i++ {
		src := noc.Coord{X: i % 8, Y: (i / 8) % 8}
		dst, ok := (Random{}).Dest(src, 8, 8, rng)
		if !ok || dst == src {
			t.Fatalf("RANDOM produced self/silent at %v", src)
		}
	}
}

func TestBitComplementIsInvolution(t *testing.T) {
	rng := xrand.New(3)
	for pe := 0; pe < 64; pe++ {
		src := noc.PECoord(pe, 8)
		d1, ok := (BitComplement{}).Dest(src, 8, 8, rng)
		if !ok {
			t.Fatalf("BITCOMPL silent at %v", src)
		}
		d2, _ := (BitComplement{}).Dest(d1, 8, 8, rng)
		if d2 != src {
			t.Fatalf("complement not involutive: %v -> %v -> %v", src, d1, d2)
		}
	}
}

func TestTransposeMirrors(t *testing.T) {
	rng := xrand.New(4)
	d, ok := (Transpose{}).Dest(noc.Coord{X: 3, Y: 5}, 8, 8, rng)
	if !ok || d != (noc.Coord{X: 5, Y: 3}) {
		t.Errorf("transpose (3,5) -> %v ok=%v", d, ok)
	}
	if _, ok := (Transpose{}).Dest(noc.Coord{X: 2, Y: 2}, 8, 8, rng); ok {
		t.Error("transpose diagonal should be silent")
	}
}

func TestLocalStaysWithinRadius(t *testing.T) {
	rng := xrand.New(5)
	p := Local{Radius: 2}
	for i := 0; i < 5000; i++ {
		src := noc.Coord{X: i % 8, Y: (i / 8) % 8}
		dst, ok := p.Dest(src, 8, 8, rng)
		if !ok {
			t.Fatal("LOCAL should never be silent")
		}
		dx := noc.RingDelta(src.X, dst.X, 8)
		dy := noc.RingDelta(src.Y, dst.Y, 8)
		if dx > 2 || dy > 2 || (dx == 0 && dy == 0) {
			t.Fatalf("LOCAL dest %v from %v outside radius", dst, src)
		}
	}
}

// TestBitComplementValidateDims is the regression test for the silent
// wrong-pattern bug: on a 6×6 torus the w-1 bit mask aliases destinations,
// so instantiation must be refused instead.
func TestBitComplementValidateDims(t *testing.T) {
	if err := ValidateDims(BitComplement{}, 6, 6); err == nil {
		t.Error("BITCOMPL on 6x6 must be rejected")
	}
	if err := ValidateDims(BitComplement{}, 8, 4); err != nil {
		t.Errorf("BITCOMPL on 8x4: %v", err)
	}
	// Mixed power-of-two / non-power-of-two dimensions are still invalid.
	if err := ValidateDims(BitComplement{}, 8, 6); err == nil {
		t.Error("BITCOMPL on 8x6 must be rejected")
	}
	// Patterns without dimension constraints validate anywhere.
	if err := ValidateDims(Random{}, 6, 6); err != nil {
		t.Errorf("RANDOM on 6x6: %v", err)
	}
}

// TestLocalDefaultRadiusRectangular is the regression test for the default
// radius using only the width: on a 16×4 torus the Y offset must be capped
// by an h-derived radius (max(1, h/4) = 1), not by w/4 = 4.
func TestLocalDefaultRadiusRectangular(t *testing.T) {
	rng := xrand.New(6)
	w, h := 16, 4
	p := Local{}
	for i := 0; i < 5000; i++ {
		src := noc.Coord{X: i % w, Y: (i / w) % h}
		dst, ok := p.Dest(src, w, h, rng)
		if !ok {
			t.Fatal("LOCAL should never be silent")
		}
		dx := noc.RingDelta(src.X, dst.X, w)
		dy := noc.RingDelta(src.Y, dst.Y, h)
		if dx > 4 {
			t.Fatalf("LOCAL dx=%d from %v exceeds w/4=4", dx, src)
		}
		if dy > 1 {
			t.Fatalf("LOCAL dy=%d from %v exceeds h/4=1", dy, src)
		}
		if dx == 0 && dy == 0 {
			t.Fatalf("LOCAL produced self at %v", src)
		}
	}
	// An explicit radius still applies to both axes.
	pr := Local{Radius: 3}
	for i := 0; i < 2000; i++ {
		src := noc.Coord{X: i % w, Y: (i / w) % h}
		dst, _ := pr.Dest(src, w, h, rng)
		if dy := noc.RingDelta(src.Y, dst.Y, h); dy > 3 {
			t.Fatalf("explicit radius: dy=%d from %v exceeds 3", dy, src)
		}
	}
}

func TestSyntheticQuotaAndRate(t *testing.T) {
	const rate, quota = 0.25, 200
	s := NewSynthetic(8, 8, Random{}, rate, quota, 42)
	cycles := int64(0)
	for !s.Done() {
		s.Tick(cycles)
		// Drain everything pending (model an infinitely fast network).
		for pe := 0; pe < 64; pe++ {
			for {
				if _, ok := s.Pending(pe, cycles); !ok {
					break
				}
				s.Injected(pe, cycles)
			}
		}
		cycles++
		if cycles > 100000 {
			t.Fatal("synthetic workload never finished")
		}
	}
	if got := generated(s); got != 64*quota {
		t.Fatalf("generated %d packets, want %d", got, 64*quota)
	}
	// With Bernoulli(0.25), 200 packets should take ≈800 cycles.
	expected := float64(quota) / rate
	if math.Abs(float64(cycles)-expected) > 0.25*expected {
		t.Errorf("generation took %d cycles, expected ≈%.0f", cycles, expected)
	}
}

func TestSyntheticTransposeDiagonalSilent(t *testing.T) {
	s := NewSynthetic(4, 4, Transpose{}, 1.0, 10, 7)
	for c := int64(0); c < 100; c++ {
		s.Tick(c)
		for pe := 0; pe < 16; pe++ {
			for {
				p, ok := s.Pending(pe, c)
				if !ok {
					break
				}
				if p.Src.X == p.Src.Y {
					t.Fatalf("diagonal PE %v generated traffic", p.Src)
				}
				s.Injected(pe, c)
			}
		}
	}
	if !s.Done() {
		t.Error("workload with silent diagonal should still finish")
	}
}

// flakyPattern declines a large fraction of draws but sources from every
// PE — the regression shape for the silent-PE probe bug: NewSynthetic used
// to classify a PE as permanently mute from a single throwaway-RNG Dest
// sample, so one unlucky first draw silenced the PE for the whole run.
type flakyPattern struct{}

func (flakyPattern) Name() string { return "FLAKY" }

func (flakyPattern) Dest(src noc.Coord, w, h int, rng *xrand.Rand) (noc.Coord, bool) {
	if rng.Bool(0.9) {
		return noc.Coord{}, false
	}
	return Random{}.Dest(src, w, h, rng)
}

func TestSyntheticStochasticNotOKIsNotSilence(t *testing.T) {
	const quota = 5
	s := NewSynthetic(4, 4, flakyPattern{}, 1.0, quota, 11)
	for c := int64(0); c < 100000 && !s.Done(); c++ {
		s.Tick(c)
		for pe := 0; pe < 16; pe++ {
			for {
				if _, ok := s.Pending(pe, c); !ok {
					break
				}
				s.Injected(pe, c)
			}
		}
	}
	if !s.Done() {
		t.Fatal("workload never finished: a transient !ok draw muted a PE")
	}
	if got := generated(s); got != 16*quota {
		t.Fatalf("generated %d packets, want %d — some PEs were wrongly silenced", got, 16*quota)
	}
}

func TestSyntheticDeterministicAcrossRuns(t *testing.T) {
	collect := func() []noc.Packet {
		s := NewSynthetic(4, 4, Random{}, 0.5, 20, 99)
		var out []noc.Packet
		for c := int64(0); c < 200 && !s.Done(); c++ {
			s.Tick(c)
			for pe := 0; pe < 16; pe++ {
				for {
					p, ok := s.Pending(pe, c)
					if !ok {
						break
					}
					out = append(out, p)
					s.Injected(pe, c)
				}
			}
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst || a[i].Gen != b[i].Gen {
			t.Fatalf("run diverged at packet %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
