package fasttrack

import (
	"testing"

	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// TestRouterArbitrationExhaustive drives a single router through every
// input-occupancy combination with randomized packet offsets, across router
// classes and variants, and asserts the bufferless invariants:
//
//   - every in-flight input packet is assigned exactly one output or
//     delivered (no loss, no duplication);
//   - only outputs that exist at the router's class are driven;
//   - at most one packet occupies each output;
//   - the WEx input, having top priority, always receives the first entry
//     of its preference list.
//
// Each trial is one production cycle: the input packets are seeded straight
// into the router's link registers, a PE offer wakes the router (the arbiter
// handles the PE port last, §IV-C, so it cannot change where the inputs go),
// Step routes it through route, and the grants are read back from the
// latched downstream registers and Delivered.
func TestRouterArbitrationExhaustive(t *testing.T) {
	configs := []struct {
		name    string
		d, r    int
		variant Variant
		x, y    int // router under test
	}{
		{"black-full", 2, 1, VariantFull, 2, 2},
		{"black-inject", 2, 1, VariantInject, 2, 2},
		{"black-full-d4", 4, 2, VariantFull, 2, 2},
		{"greyx-full", 2, 2, VariantFull, 2, 1},
		{"greyy-full", 2, 2, VariantFull, 1, 2},
		{"white-full", 2, 2, VariantFull, 1, 1},
		{"black-full-popoff", 3, 1, VariantFull, 3, 3}, // D does not divide N
	}
	const peID = 5 // the waking offer's packet
	rng := xrand.New(4242)
	for _, c := range configs {
		top, err := NewTopology(8, c.d, c.r)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Topology: top, Variant: c.variant}
		hasX, hasY := top.HasXExpress(c.x), top.HasYExpress(c.y)
		i := c.y*8 + c.x
		// The downstream register each output latches into.
		latched := [numOuts]struct {
			plane noc.Port
			j     int
		}{
			oESh: {noc.PortWSh, c.y*8 + (c.x+1)%8},
			oEEx: {noc.PortWEx, c.y*8 + (c.x+c.d)%8},
			oSSh: {noc.PortNSh, ((c.y+1)%8)*8 + c.x},
			oSEx: {noc.PortNEx, ((c.y+c.d)%8)*8 + c.x},
		}

		// Enumerate all occupancy masks over (WSh, WEx, NSh, NEx), skipping
		// express inputs the class does not have, with many random offsets.
		for mask := 0; mask < 16; mask++ {
			useWEx := mask&2 != 0
			useNEx := mask&8 != 0
			if (useWEx && !hasX) || (useNEx && !hasY) {
				continue
			}
			for trial := 0; trial < 60; trial++ {
				nw, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var want int
				// seed latches a packet onto input port in. It takes a pool
				// slot from the top: the kernel hands slots out from index 0
				// and injects at most one packet per router per cycle, so the
				// waking offer cannot land on a seeded packet.
				seed := func(in noc.Port, id int64, express bool, dim byte) noc.Packet {
					// Express inputs must carry express-legal offsets: the
					// simulator never produces a misaligned express packet
					// except via documented pop-off paths, which arise from
					// in-network deflections, not fresh injections. Random
					// offsets here cover both.
					dst := noc.Coord{X: rng.Intn(8), Y: rng.Intn(8)}
					if express && c.variant == VariantInject {
						// Inject lane discipline: express packets always
						// carry aligned offsets.
						dx := (rng.Intn(8 / c.d)) * c.d
						dy := (rng.Intn(8 / c.d)) * c.d
						if dim == 'x' && dx == 0 && dy == 0 {
							dx = c.d
						}
						dst = noc.Coord{X: (c.x + dx) % 8, Y: (c.y + dy) % 8}
						if dim == 'y' {
							// Y-express packets have finished X routing.
							dst.X = c.x
						}
					}
					if express && c.variant == VariantFull && dim == 'y' {
						dst.X = c.x // NEx with dx != 0 only via misroutes
					}
					want++
					slot := int32(len(nw.Pool) - want)
					nw.Pool[slot] = noc.Packet{ID: id, Src: noc.Coord{X: 0, Y: 0}, Dst: dst}
					nw.Cur[in][i] = slot
					return nw.Pool[slot]
				}
				var wExPkt noc.Packet
				if mask&1 != 0 {
					seed(noc.PortWSh, 1, false, 'x')
				}
				if useWEx {
					wExPkt = seed(noc.PortWEx, 2, true, 'x')
				}
				if mask&4 != 0 {
					seed(noc.PortNSh, 3, false, 'y')
				}
				if useNEx {
					seed(noc.PortNEx, 4, true, 'y')
				}
				nw.Offer(i, noc.Packet{ID: peID, Src: noc.Coord{X: c.x, Y: c.y},
					Dst: noc.Coord{X: rng.Intn(8), Y: rng.Intn(8)}})
				nw.Step(0) // panics on overcommit

				// Collect placements.
				got := 0
				seen := map[int64]int{}
				var onOut [numOuts]int64
				for o := 0; o < numOuts; o++ {
					l := latched[o]
					r := nw.Cur[l.plane][l.j]
					if r < 0 {
						continue
					}
					switch uint8(o) {
					case oEEx:
						if !hasX {
							t.Fatalf("%s mask %d: EEx driven on router without X express", c.name, mask)
						}
					case oSEx:
						if !hasY {
							t.Fatalf("%s mask %d: SEx driven on router without Y express", c.name, mask)
						}
					}
					onOut[o] = nw.Pool[r].ID
					seen[onOut[o]]++
				}
				for _, p := range nw.Delivered() {
					seen[p.ID]++
					if p.Dst != (noc.Coord{X: c.x, Y: c.y}) {
						t.Fatalf("%s mask %d: delivered packet %d not addressed here", c.name, mask, p.ID)
					}
				}
				for id, n := range seen {
					if n != 1 {
						t.Fatalf("%s mask %d: packet %d appears %d times", c.name, mask, id, n)
					}
					if id != peID {
						got++
					}
				}
				if got != want {
					t.Fatalf("%s mask %d trial %d: %d packets in, %d out", c.name, mask, trial, want, got)
				}
				if accepted := nw.Accepted(i); accepted != (seen[peID] == 1) {
					t.Fatalf("%s mask %d: offer accepted=%v but placed %d times", c.name, mask, accepted, seen[peID])
				}

				// Priority check: WEx, processed first, must land on the
				// first existing candidate of its preference list.
				if useWEx {
					pr := nw.prefsFor(noc.PortWEx, wExPkt.Dst, c.x, c.y)
					var first *cand
					for k := 0; k < pr.n; k++ {
						cd := pr.c[k]
						exists := cd.out == oESh || cd.out == oSSh ||
							(cd.out == oEEx && hasX) || (cd.out == oSEx && hasY)
						if exists {
							first = &cd
							break
						}
					}
					if first == nil {
						t.Fatalf("%s: WEx packet has no feasible candidate", c.name)
					}
					if first.deliver {
						found := false
						for _, p := range nw.Delivered() {
							if p.ID == 2 {
								found = true
							}
						}
						if !found {
							t.Fatalf("%s mask %d: WEx exit not granted", c.name, mask)
						}
					} else if onOut[first.out] != 2 {
						t.Fatalf("%s mask %d: WEx not on its first choice output %d", c.name, mask, first.out)
					}
				}
			}
		}
	}
}

// TestRouteNeverPanicsUnderFuzz hammers route through full network steps
// with randomized multi-router traffic to exercise arbitration interleavings
// (the placeR panic is the assertion).
func TestRouteNeverPanicsUnderFuzz(t *testing.T) {
	rng := xrand.New(31337)
	for trial := 0; trial < 30; trial++ {
		ds := []int{1, 2, 3, 4}
		d := ds[rng.Intn(len(ds))]
		r := 1
		if d%2 == 0 && rng.Bool(0.5) {
			r = 2
		}
		v := VariantFull
		if 8%d == 0 && rng.Bool(0.3) {
			v = VariantInject
		}
		top, err := NewTopology(8, d, r)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := New(Config{Topology: top, Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		for cyc := int64(0); cyc < 400; cyc++ {
			for pe := 0; pe < 64; pe++ {
				if rng.Bool(0.7) {
					nw.Offer(pe, noc.Packet{
						ID:  cyc<<8 | int64(pe),
						Src: noc.PECoord(pe, 8), Dst: noc.PECoord(rng.Intn(64), 8), Gen: cyc,
					})
				}
			}
			nw.Step(cyc)
		}
	}
}
