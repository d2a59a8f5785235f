package fasttrack

import (
	"testing"

	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// FuzzTopology throws arbitrary (N, D, R) at topology construction: invalid
// parameterizations must be rejected with an error (never a panic), and
// every accepted topology must satisfy the structural invariants — in
// particular that every express link lands on a router that carries express
// ports, so a packet on the express plane can never fall off the network.
// Accepted topologies up to 16×16 then carry real traffic on the variant
// the fuzzer picks (Inject only where D | N): a hole in the routing policy
// panics in the arbiter or loses a packet.
func FuzzTopology(f *testing.F) {
	f.Add(8, 2, 1, false)
	f.Add(8, 2, 2, true)
	f.Add(16, 4, 2, true)
	f.Add(3, 1, 1, false)
	f.Add(0, 0, 0, false)
	f.Add(64, 31, 7, false)
	f.Add(8, 3, 1, false)
	f.Add(12, 6, 3, true)
	f.Fuzz(func(t *testing.T, n, d, r int, inject bool) {
		n, d, r = n%64, d%64, r%64
		top, err := NewTopology(n, d, r)
		if err != nil {
			return // rejected without panicking: fine
		}
		if top.D < 1 || top.D > top.N/2 || top.R < 1 || top.D%top.R != 0 || top.N%top.R != 0 {
			t.Fatalf("accepted invalid topology %+v", top)
		}
		black, grey, white := routerCounts(top)
		if black+grey+white != top.N*top.N {
			t.Fatalf("%s: router classes sum to %d, want %d", top, black+grey+white, top.N*top.N)
		}
		for x := 0; x < top.N; x++ {
			// Express links span D hops; both endpoints must carry express
			// ports (D ≡ 0 mod R keeps the braid aligned).
			if top.HasXExpress(x) && !top.HasXExpress((x+top.D)%top.N) {
				t.Fatalf("%s: X express link from col %d lands on plain router %d",
					top, x, (x+top.D)%top.N)
			}
			if top.HasYExpress(x) && !top.HasYExpress((x+top.D)%top.N) {
				t.Fatalf("%s: Y express link from row %d lands on plain router %d",
					top, x, (x+top.D)%top.N)
			}
			for y := 0; y < top.N; y++ {
				c := top.ClassAt(x, y)
				want := ClassWhite
				switch hx, hy := top.HasXExpress(x), top.HasYExpress(y); {
				case hx && hy:
					want = ClassBlack
				case hx:
					want = ClassGreyX
				case hy:
					want = ClassGreyY
				}
				if c != want {
					t.Fatalf("%s: ClassAt(%d,%d) = %v, want %v", top, x, y, c, want)
				}
			}
		}
		if top.N <= 16 {
			cfg := Config{Topology: top}
			if inject && top.N%top.D == 0 {
				cfg.Variant = VariantInject
			}
			randomTrafficDrains(t, cfg)
		}
	})
}

// randomTrafficDrains offers a packet with a uniformly random destination at
// every PE for 64 cycles, drains the network, and requires every accepted
// packet to be delivered exactly once.
func randomTrafficDrains(t *testing.T, cfg Config) {
	nw, err := New(cfg)
	if err != nil {
		t.Fatalf("%v %v: network construction failed: %v", cfg.Topology, cfg.Variant, err)
	}
	n := cfg.Topology.N
	rng := xrand.New(uint64(n*1000 + cfg.Topology.D*10 + cfg.Topology.R))
	accepted := map[int64]bool{}
	var id int64
	for now := int64(0); now < 64 || nw.InFlight() > 0; now++ {
		if now > 64+100*int64(n*n) {
			t.Fatalf("%v %v: %d packets still in flight at cycle %d", cfg.Topology, cfg.Variant, nw.InFlight(), now)
		}
		if now < 64 {
			for pe := 0; pe < n*n; pe++ {
				id++
				nw.Offer(pe, noc.Packet{ID: id, Src: noc.PECoord(pe, n), Dst: noc.PECoord(rng.Intn(n*n), n), Gen: now})
			}
		}
		nw.Step(now)
		if now < 64 {
			for pe := 0; pe < n*n; pe++ {
				if nw.Accepted(pe) {
					accepted[nw.Offers[pe].P.ID] = true
				}
			}
		}
		for _, p := range nw.Delivered() {
			if !accepted[p.ID] {
				t.Fatalf("%v %v: packet %d delivered twice or never accepted", cfg.Topology, cfg.Variant, p.ID)
			}
			delete(accepted, p.ID)
		}
	}
	if len(accepted) != 0 {
		t.Fatalf("%v %v: %d accepted packets never delivered", cfg.Topology, cfg.Variant, len(accepted))
	}
}
