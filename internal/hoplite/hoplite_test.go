package hoplite

import (
	"testing"

	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
	"fasttrack/internal/traffic"
)

// inject force-feeds a packet at its source PE, failing if the network
// refuses it.
func inject(t *testing.T, nw *Network, p noc.Packet, now int64) {
	t.Helper()
	nw.Offer(noc.PEIndex(p.Src, nw.Width()), p)
	nw.Step(now)
	if !nw.Accepted(noc.PEIndex(p.Src, nw.Width())) {
		t.Fatalf("injection refused for %v->%v", p.Src, p.Dst)
	}
}

// drain steps the network until empty, returning delivered packets.
func drain(t *testing.T, nw *Network, maxCycles int64) []noc.Packet {
	t.Helper()
	var out []noc.Packet
	for c := int64(1); c <= maxCycles; c++ {
		nw.Step(c)
		out = append(out, append([]noc.Packet(nil), nw.Delivered()...)...)
		if nw.InFlight() == 0 {
			return out
		}
	}
	t.Fatalf("network did not drain in %d cycles (%d in flight)", maxCycles, nw.InFlight())
	return nil
}

func TestNewRejectsTinyDimensions(t *testing.T) {
	for _, dims := range [][2]int{{1, 4}, {4, 1}, {0, 0}} {
		if _, err := New(dims[0], dims[1]); err == nil {
			t.Errorf("New(%d,%d) should fail", dims[0], dims[1])
		}
	}
}

// TestSinglePacketLatency checks dimension-ordered routing takes exactly
// dx + dy cycles from the injection step: one cycle per link traversal,
// with the exit tapped during the destination router's own arbitration.
func TestSinglePacketLatency(t *testing.T) {
	for _, tc := range []struct {
		src, dst noc.Coord
		want     int64 // delivery cycle, with injection at Step(0)
	}{
		{noc.Coord{X: 0, Y: 0}, noc.Coord{X: 3, Y: 0}, 3},
		{noc.Coord{X: 0, Y: 0}, noc.Coord{X: 0, Y: 3}, 3},
		{noc.Coord{X: 0, Y: 3}, noc.Coord{X: 3, Y: 0}, 4}, // the paper's Fig 8 endpoints: 3 east + 1 south (wrap)
		{noc.Coord{X: 3, Y: 3}, noc.Coord{X: 0, Y: 0}, 2}, // wraparound both dims
		{noc.Coord{X: 2, Y: 2}, noc.Coord{X: 2, Y: 2}, 0}, // self delivery via exit
	} {
		nw, err := New(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		p := noc.Packet{ID: 1, Src: tc.src, Dst: tc.dst, Gen: 0}
		inject(t, nw, p, 0)
		if tc.src == tc.dst {
			// Delivered within the injection step itself.
			if len(nw.Delivered()) != 1 {
				t.Errorf("%v->%v: self packet not delivered at injection", tc.src, tc.dst)
			}
			continue
		}
		var deliveredAt int64 = -1
		for c := int64(1); c < 50 && deliveredAt < 0; c++ {
			nw.Step(c)
			if len(nw.Delivered()) > 0 {
				deliveredAt = c
			}
		}
		if deliveredAt != tc.want {
			t.Errorf("%v->%v delivered at cycle %d, want %d", tc.src, tc.dst, deliveredAt, tc.want)
		}
	}
}

// TestTurnPriorityDeflectsNorthTraffic builds the paper's canonical
// conflict: a W packet turning south and an N packet continuing south at
// the same router. The W packet must win and the N packet must deflect
// east, then still deliver after circling the X ring.
func TestTurnPriorityDeflectsNorthTraffic(t *testing.T) {
	nw, err := New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Packet A: (0,1) -> (1,3): travels E then turns S at (1,1).
	// Packet B: (1,0) -> (1,3): travels S through (1,1).
	// Both arrive at router (1,1) simultaneously; A arrives on W, B on N.
	a := noc.Packet{ID: 1, Src: noc.Coord{X: 0, Y: 1}, Dst: noc.Coord{X: 1, Y: 3}}
	b := noc.Packet{ID: 2, Src: noc.Coord{X: 1, Y: 0}, Dst: noc.Coord{X: 1, Y: 3}}
	nw.Offer(noc.PEIndex(a.Src, 4), a)
	nw.Offer(noc.PEIndex(b.Src, 4), b)
	nw.Step(0)
	if !nw.Accepted(noc.PEIndex(a.Src, 4)) || !nw.Accepted(noc.PEIndex(b.Src, 4)) {
		t.Fatal("both injections should succeed")
	}
	out := drain(t, nw, 100)
	if len(out) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(out))
	}
	var defA, defB int32
	for _, p := range out {
		if p.ID == 1 {
			defA = p.Deflections
		} else {
			defB = p.Deflections
		}
	}
	if defA != 0 {
		t.Errorf("turning W packet was deflected %d times, want 0", defA)
	}
	if defB == 0 {
		t.Errorf("N packet should have been deflected by the W->S turn")
	}
	if nw.Counters().MisroutesByInput[noc.PortNSh] == 0 {
		t.Errorf("misroute counter for N input not incremented")
	}
}

// TestAllPairsDelivery sends one packet between every ordered PE pair and
// checks they all arrive with sane hop counts.
func TestAllPairsDelivery(t *testing.T) {
	const n = 5 // non-power-of-two exercise
	for src := 0; src < n*n; src++ {
		for dst := 0; dst < n*n; dst++ {
			if src == dst {
				continue
			}
			nw, err := New(n, n)
			if err != nil {
				t.Fatal(err)
			}
			p := noc.Packet{ID: 1, Src: noc.PECoord(src, n), Dst: noc.PECoord(dst, n)}
			inject(t, nw, p, 0)
			out := drain(t, nw, 64)
			if len(out) != 1 || out[0].Dst != p.Dst {
				t.Fatalf("pair %d->%d: bad delivery %v", src, dst, out)
			}
			want := int32(noc.RingDelta(p.Src.X, p.Dst.X, n) + noc.RingDelta(p.Src.Y, p.Dst.Y, n))
			if out[0].ShortHops != want {
				t.Fatalf("pair %d->%d: %d hops, want %d", src, dst, out[0].ShortHops, want)
			}
		}
	}
}

// TestInjectionBlockedWhenPortBusy checks the PE port's lowest priority: a
// continuous stream through a router blocks same-direction injection.
func TestInjectionBlockedWhenPortBusy(t *testing.T) {
	nw, err := New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the X ring of row 0 with eastbound traffic from (0,0).
	src := noc.Coord{X: 0, Y: 0}
	for c := int64(0); c < 3; c++ {
		nw.Offer(noc.PEIndex(src, 4), noc.Packet{ID: c, Src: src, Dst: noc.Coord{X: 3, Y: 0}, Gen: c})
		nw.Step(c)
	}
	// Now (1,0) wants to inject eastbound while a packet passes through.
	them := noc.Coord{X: 1, Y: 0}
	nw.Offer(noc.PEIndex(them, 4), noc.Packet{ID: 99, Src: them, Dst: noc.Coord{X: 3, Y: 0}})
	nw.Step(3)
	if nw.Accepted(noc.PEIndex(them, 4)) {
		t.Fatal("injection should stall while through-traffic holds the E port")
	}
	if nw.Counters().InjectionStalls == 0 {
		t.Fatal("stall counter not incremented")
	}
}

// TestConservation floods the network randomly and checks injected =
// delivered + in-flight at every cycle.
func TestConservation(t *testing.T) {
	nw, err := New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(12345)
	next := func() uint64 { seed = seed*6364136223846793005 + 1; return seed >> 33 }
	var injected, delivered int64
	for c := int64(0); c < 2000; c++ {
		offered := map[int]bool{}
		for pe := 0; pe < 16; pe++ {
			if next()%10 < 4 {
				dst := int(next() % 16)
				nw.Offer(pe, noc.Packet{ID: c<<8 | int64(pe), Src: noc.PECoord(pe, 4), Dst: noc.PECoord(dst, 4), Gen: c})
				offered[pe] = true
			}
		}
		nw.Step(c)
		for pe := range offered {
			if nw.Accepted(pe) {
				injected++
			}
		}
		delivered += int64(len(nw.Delivered()))
		if injected != delivered+int64(nw.InFlight()) {
			t.Fatalf("cycle %d: injected %d != delivered %d + inflight %d",
				c, injected, delivered, nw.InFlight())
		}
	}
	if injected == 0 {
		t.Fatal("test injected nothing")
	}
}

// TestExitGateDeflectsDeliveries verifies the multi-channel sharing mask:
// with every client port marked busy, packets at their destination circle
// the rings instead of delivering, and complete once the ports free up.
func TestExitGateDeflectsDeliveries(t *testing.T) {
	nw, err := New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	nw.ExitBusy = make([]bool, nw.NumPEs())
	gate := func(open bool) {
		for pe := range nw.ExitBusy {
			nw.ExitBusy[pe] = !open
		}
	}
	gate(false)
	p := noc.Packet{ID: 1, Src: noc.Coord{X: 0, Y: 0}, Dst: noc.Coord{X: 2, Y: 2}}
	inject(t, nw, p, 0)
	for c := int64(1); c < 30; c++ {
		nw.Step(c)
		if len(nw.Delivered()) != 0 {
			t.Fatalf("delivered through a closed gate at cycle %d", c)
		}
	}
	if nw.InFlight() != 1 {
		t.Fatalf("packet lost while gated: in-flight %d", nw.InFlight())
	}
	gate(true)
	out := drain(t, nw, 50)
	if len(out) != 1 || out[0].Deflections == 0 {
		t.Fatalf("gated packet should deliver with deflections after opening: %+v", out)
	}

	// Gated self-injection must stall, not vanish.
	gate(false)
	self := noc.Coord{X: 1, Y: 1}
	nw.Offer(noc.PEIndex(self, 4), noc.Packet{ID: 2, Src: self, Dst: self})
	nw.Step(100)
	if nw.Accepted(noc.PEIndex(self, 4)) {
		t.Fatal("self packet accepted through a closed gate")
	}
}

// TestPerCycleInvariantsUnderLoad drives the torus under the engine's full
// per-cycle audit (conservation, delivery identity, age watchdog): any
// lost, duplicated, corrupted, or starved packet fails at the offending
// cycle.
func TestPerCycleInvariantsUnderLoad(t *testing.T) {
	nw, err := New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(8, 8, traffic.Random{}, 0.4, 300, 21)
	res, err := sim.Run(nw, wl, sim.Options{CheckConservation: true, MaxPacketAge: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 64*300 {
		t.Errorf("delivered %d, want %d", res.Delivered, 64*300)
	}
}
