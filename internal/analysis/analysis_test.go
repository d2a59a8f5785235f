package analysis

import (
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/hoplite"
	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// TestHopliteBoundHoldsUnderAdversarialTraffic floods a Hoplite network
// with hotspot-heavy random traffic and checks every delivered packet's
// in-flight latency against the provable bound.
func TestHopliteBoundHoldsUnderAdversarialTraffic(t *testing.T) {
	const n = 6
	nw, err := hoplite.New(n, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(77)
	hot := noc.Coord{X: 3, Y: 3}
	var id int64
	var delivered int64
	for cyc := int64(0); cyc < 6000; cyc++ {
		for pe := 0; pe < n*n; pe++ {
			if !rng.Bool(0.6) {
				continue
			}
			dst := hot
			if rng.Bool(0.5) {
				dst = noc.PECoord(rng.Intn(n*n), n)
			}
			src := noc.PECoord(pe, n)
			if dst == src {
				continue
			}
			id++
			nw.Offer(pe, noc.Packet{ID: id, Src: src, Dst: dst, Gen: cyc})
		}
		nw.Step(cyc)
		for _, p := range nw.Delivered() {
			delivered++
			inFlight := cyc - p.Inject
			bound := HopliteInFlightBound(n, p.Src, p.Dst)
			if inFlight > bound {
				t.Fatalf("packet %v->%v in-flight %d exceeds bound %d (deflections %d)",
					p.Src, p.Dst, inFlight, bound, p.Deflections)
			}
		}
	}
	if delivered < 1000 {
		t.Fatalf("only %d deliveries; test not meaningful", delivered)
	}
}

func TestHopliteNetworkBound(t *testing.T) {
	// 8×8 worst pair: dx=dy=7 -> 7+7+8*8 = 78.
	if got := HopliteNetworkBound(8); got != 78 {
		t.Errorf("HopliteNetworkBound(8) = %d, want 78", got)
	}
	// The bound must dominate every pairwise bound.
	for s := 0; s < 64; s++ {
		for d := 0; d < 64; d++ {
			b := HopliteInFlightBound(8, noc.PECoord(s, 8), noc.PECoord(d, 8))
			if b > HopliteNetworkBound(8) {
				t.Fatalf("pair bound %d exceeds network bound", b)
			}
		}
	}
}

// TestIsolatedLatencyIsTheFastPathFormula: on a fully-populated Full
// FastTrack, the isolated latency of every pair equals the closed form
// dx%D + dx/D + dy%D + dy/D — packets upgrade as soon as they align.
func TestIsolatedLatencyIsTheFastPathFormula(t *testing.T) {
	cfg := core.FastTrack(8, 2, 1)
	for s := 0; s < 64; s++ {
		for d := 0; d < 64; d++ {
			if s == d {
				continue
			}
			src, dst := noc.PECoord(s, 8), noc.PECoord(d, 8)
			cyc, _, _, err := IsolatedLatency(cfg, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			dx := noc.RingDelta(src.X, dst.X, 8)
			dy := noc.RingDelta(src.Y, dst.Y, 8)
			want := int64(dx%2 + dx/2 + dy%2 + dy/2)
			if cyc != want {
				t.Fatalf("%v->%v isolated %d, want %d", src, dst, cyc, want)
			}
		}
	}
}

// TestZeroLoadOrdering: mean and max isolated latency must improve
// monotonically from Hoplite to depopulated to fully-populated FastTrack.
func TestZeroLoadOrdering(t *testing.T) {
	configs := []core.Config{
		core.Hoplite(8),
		core.FastTrack(8, 2, 2),
		core.FastTrack(8, 2, 1),
	}
	var prev *ZeroLoad
	for _, cfg := range configs {
		zl, err := ZeroLoadProfile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if zl.Mean >= prev.Mean {
				t.Errorf("%s mean %.2f should beat %s mean %.2f", zl.Config, zl.Mean, prev.Config, prev.Mean)
			}
			if zl.Max > prev.Max {
				t.Errorf("%s max %d should not exceed %s max %d", zl.Config, zl.Max, prev.Config, prev.Max)
			}
		}
		p := zl
		prev = &p
	}
	ft, err := ZeroLoadProfile(core.FastTrack(8, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ft.ExpressShare < 0.3 {
		t.Errorf("FT(64,2,1) express share %.2f suspiciously low", ft.ExpressShare)
	}
}

// TestSpeedupBoundDominatesMeasured: the analytical zero-load speedup
// ceiling must dominate the measured isolated speedup for every pair.
func TestSpeedupBoundDominatesMeasured(t *testing.T) {
	hop := core.Hoplite(8)
	ft := core.FastTrack(8, 2, 1)
	for s := 0; s < 64; s += 3 {
		for d := 0; d < 64; d += 5 {
			if s == d {
				continue
			}
			src, dst := noc.PECoord(s, 8), noc.PECoord(d, 8)
			h, _, _, err := IsolatedLatency(hop, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			f, _, _, err := IsolatedLatency(ft, src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if f == 0 || h == 0 {
				continue
			}
			bound := speedupBound(8, 2, src, dst)
			if got := float64(h) / float64(f); got > bound+1e-9 {
				t.Fatalf("%v->%v measured speedup %.3f exceeds bound %.3f", src, dst, got, bound)
			}
		}
	}
}

// speedupBound returns the best-case (zero-load) latency speedup FastTrack
// can deliver over Hoplite for a given pair: the ratio of DOR path length
// to the express-accelerated path length. It is the analytical ceiling the
// simulated speedups must respect.
func speedupBound(n, d int, src, dst noc.Coord) float64 {
	dx := noc.RingDelta(src.X, dst.X, n)
	dy := noc.RingDelta(src.Y, dst.Y, n)
	if dx+dy == 0 {
		return 1
	}
	fast := dx%d + dx/d + dy%d + dy/d
	if fast == 0 {
		fast = 1
	}
	return float64(dx+dy) / float64(fast)
}
