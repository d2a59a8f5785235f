package fasttrack

import (
	"testing"

	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// arbInputs are a router's five inputs in the paper's priority order, WEx >
// NEx > WSh > NSh > PE (§IV-C).
var arbInputs = [5]noc.Port{noc.PortWEx, noc.PortNEx, noc.PortWSh, noc.PortNSh, noc.PortPE}

// outExit stands for the NoC exit among a grant's outputs.
const outExit = numOuts

// TestRouterArbitrationExhaustive is the arbiter's checker. It shares no
// code with the policy table: it drives the production route of one router
// and reads the grants back from the latched downstream registers and the
// delivery list. It sweeps FT(8²,D,R) for D ∈ {1,2,3,4} and every R | D
// (Inject only where D | N), every router class, every occupancy of the
// five inputs and every offset class on each occupied input — one
// representative destination per class, the class being (dx = 0, D | dx,
// D | (dx − D) mod N, dy = 0, D | dy). It checks:
//
//   - totality: every in-flight packet gets exactly one output the router
//     has, or is delivered here; a PE offer is placed once or refused; no
//     driver carries two packets (the exit shares a south driver: SSh on
//     Full routers, SSh or SEx on Inject ones, §5b);
//   - eligibility: a packet granted an express output without being
//     deflected has Δ ≥ D and Δ ≡ 0 (mod D) in that dimension, and on
//     Inject routers a short-lane packet never enters the express plane;
//   - priority: an input that does not get the output it takes when alone
//     lost it to a higher-priority input.
//
// On Full routers every input may carry any offset (misroutes leave
// packets anywhere). On Inject routers the checker offers only what lane
// discipline lets arrive: express packets are aligned in both dimensions,
// an NEx packet has finished X routing, and WEx packets ride only rows that
// carry Y express ports, because a packet commits to the express lane only
// where its whole flight stays inside it.
func TestRouterArbitrationExhaustive(t *testing.T) {
	const n = 8
	trials := 0
	for d := 1; d <= 4; d++ {
		for r := 1; r <= d; r++ {
			top, err := NewTopology(n, d, r)
			if err != nil {
				continue // R must divide both D and N
			}
			for _, v := range []Variant{VariantFull, VariantInject} {
				seen := map[Class]bool{}
				for _, at := range []noc.Coord{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 0}, {X: 1, Y: 1}} {
					if seen[top.ClassAt(at.X, at.Y)] {
						continue
					}
					seen[top.ClassAt(at.X, at.Y)] = true
					nw, err := New(Config{Topology: top, Variant: v})
					if err != nil {
						continue // Inject needs D | N
					}
					trials += newArbCheck(t, nw, at).sweep()
				}
			}
		}
	}
	t.Logf("%d router cycles checked", trials)
}

// arbCheck drives one router of one network.
type arbCheck struct {
	t      *testing.T
	nw     *Network
	idle   Network // nw as built, before any trial: restoring it rewinds the kernel's pool, free list and delivery list
	n, d   int
	inject bool
	at     noc.Coord
	i      int
	has    [numOuts]bool
	// down[o] is the register output o latches into: input plane, router.
	down [numOuts]struct {
		plane noc.Port
		j     int
	}
	// offs[k] are the destinations offered on input arbInputs[k], one per
	// offset class; alone[k][c] is where offs[k][c] goes with every other
	// input idle.
	offs  [5][]noc.Coord
	alone [5][]int
}

func newArbCheck(t *testing.T, nw *Network, at noc.Coord) *arbCheck {
	top := nw.cfg.Topology
	n, d := top.N, top.D
	c := &arbCheck{t: t, nw: nw, idle: *nw, n: n, d: d, inject: nw.cfg.Variant == VariantInject,
		at: at, i: at.Y*n + at.X}
	hx, hy := top.HasXExpress(at.X), top.HasYExpress(at.Y)
	c.has = [numOuts]bool{oESh: true, oSSh: true, oEEx: hx, oSEx: hy}
	c.down[oESh].plane, c.down[oESh].j = noc.PortWSh, at.Y*n+(at.X+1)%n
	c.down[oEEx].plane, c.down[oEEx].j = noc.PortWEx, at.Y*n+(at.X+d)%n
	c.down[oSSh].plane, c.down[oSSh].j = noc.PortNSh, (at.Y+1)%n*n+at.X
	c.down[oSEx].plane, c.down[oSEx].j = noc.PortNEx, (at.Y+d)%n*n+at.X

	// One ring offset per class on each axis.
	var xs, ys []int
	xkeys, ykeys := map[[3]bool]bool{}, map[[2]bool]bool{}
	for k := 0; k < n; k++ {
		if xk := [3]bool{k == 0, k%d == 0, (k-d+n)%n%d == 0}; !xkeys[xk] {
			xkeys[xk] = true
			xs = append(xs, k)
		}
		if yk := [2]bool{k == 0, k%d == 0}; !ykeys[yk] {
			ykeys[yk] = true
			ys = append(ys, k)
		}
	}
	for k, in := range arbInputs {
		switch {
		case in == noc.PortWEx && !hx, in == noc.PortNEx && !hy:
			continue // no express link lands here
		case in == noc.PortWEx && c.inject && !hy:
			continue
		}
		for _, dx := range xs {
			for _, dy := range ys {
				if c.inject && in.IsExpress() && (dx%d != 0 || dy%d != 0 || in == noc.PortNEx && dx != 0) {
					continue
				}
				c.offs[k] = append(c.offs[k], noc.Coord{X: (at.X + dx) % n, Y: (at.Y + dy) % n})
			}
		}
		c.alone[k] = make([]int, len(c.offs[k]))
		for ci := range c.offs[k] {
			var occ [5]int
			for m := range occ {
				occ[m] = -1
			}
			occ[k] = ci
			c.alone[k][ci] = c.cycle(occ)[k]
		}
	}
	return c
}

// sweep checks every occupancy of the five inputs by every combination of
// offset classes and returns the number of router cycles run.
func (c *arbCheck) sweep() int {
	var occ [5]int
	trials := 0
	var rec func(k int)
	rec = func(k int) {
		if k == len(occ) {
			got := c.cycle(occ)
			c.checkPriority(occ, got)
			trials++
			return
		}
		for ci := -1; ci < len(c.offs[k]); ci++ {
			occ[k] = ci
			rec(k + 1)
		}
	}
	rec(0)
	return trials
}

// cycle routes the router once with input arbInputs[k] carrying
// offs[k][occ[k]] (idle when occ[k] < 0), checks totality and eligibility,
// and returns each input's grant: an output, outExit, or -1 (idle or
// refused).
func (c *arbCheck) cycle(occ [5]int) (got [5]int) {
	t, nw := c.t, c.nw
	*nw = c.idle
	const peID = 100
	for k, in := range arbInputs {
		got[k] = -1
		if occ[k] < 0 {
			continue
		}
		p := noc.Packet{ID: int64(k), Src: c.at, Dst: c.offs[k][occ[k]]}
		if in == noc.PortPE {
			p.ID = peID
			nw.Offer(c.i, p)
			continue
		}
		slot := int32(len(nw.Pool) - 1 - k)
		nw.Pool[slot] = p
		nw.Cur[in][c.i] = slot
	}
	nw.route(c.i, c.at.X, c.at.Y, 0)

	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%v %s router %v inputs %v: "+format,
			append([]any{nw.cfg.Topology, nw.cfg.Variant, c.at, c.describe(occ)}, args...)...)
	}
	placed := func(id int64, o int) {
		k := int(id)
		if id == peID {
			k = len(arbInputs) - 1
		}
		if k < 0 || k >= len(got) || occ[k] < 0 || got[k] != -1 {
			fail("packet %d granted twice or out of nowhere", id)
		}
		got[k] = o
	}
	south := 0
	for o := range c.down {
		reg := &nw.Next[c.down[o].plane][c.down[o].j]
		if *reg < 0 {
			continue
		}
		p := nw.Pool[*reg]
		*reg = -1
		if !c.has[o] {
			fail("output %d driven on a router without it", o)
		}
		placed(p.ID, o)
		if o == oSSh || o == oSEx && c.inject {
			south++
		}
		in := arbInputs[len(arbInputs)-1]
		if p.ID != peID {
			in = arbInputs[p.ID]
		}
		if o == oEEx || o == oSEx {
			c.checkEligible(fail, in, p, o)
		}
	}
	for _, p := range nw.Delivered() {
		if p.Dst != c.at {
			fail("packet %d delivered at a router it is not addressed to", p.ID)
		}
		placed(p.ID, outExit)
		south++
	}
	drivers := 1
	if c.inject && c.has[oSEx] {
		drivers = 2
	}
	if south > drivers {
		fail("%d grants share %d exit/south drivers", south, drivers)
	}
	for k, in := range arbInputs {
		switch {
		case occ[k] < 0:
		case in == noc.PortPE:
			if stalls := nw.Tally.InjectionStalls; (got[k] >= 0) == (stalls != 0) {
				fail("offer placed=%v with %d stalls", got[k] >= 0, stalls)
			}
		case got[k] < 0:
			fail("in-flight packet on %v lost", in)
		}
	}
	return got
}

// checkEligible holds an express grant to the routing invariant (§5): a
// productive express hop needs Δ ≥ D and Δ ≡ 0 (mod D) along its dimension,
// with X finished before a Y hop; anything else must be a counted
// deflection (the §6 repertoire or the emergency tail). An Inject router
// never lets a short-lane packet onto the express plane.
func (c *arbCheck) checkEligible(fail func(string, ...any), in noc.Port, p noc.Packet, o int) {
	n, d := c.n, c.d
	dx, dy := (p.Dst.X-c.at.X+n)%n, (p.Dst.Y-c.at.Y+n)%n
	if c.inject && (in == noc.PortWSh || in == noc.PortNSh) {
		fail("short-lane packet from %v granted express output %d", in, o)
	}
	aligned := dx != 0 && dx%d == 0
	if o == oSEx {
		aligned = dx == 0 && dy != 0 && dy%d == 0
	}
	if !aligned && p.Deflections == 0 {
		fail("packet from %v with Δ=(%d,%d) granted express output %d undeflected", in, dx, dy, o)
	}
}

// checkPriority holds every input that missed its lone-input grant to
// having lost it to a higher-priority input: one that took the same output,
// or — when the lost grant is the exit or a south output, which share
// drivers — the exit or a south output.
func (c *arbCheck) checkPriority(occ [5]int, got [5]int) {
	south := func(o int) bool { return o == oSSh || o == oSEx || o == outExit }
	for k := range arbInputs {
		if occ[k] < 0 {
			continue
		}
		want := c.alone[k][occ[k]]
		if got[k] == want {
			continue
		}
		lost := false
		for h := 0; h < k; h++ {
			if got[h] == want || want == outExit && south(got[h]) || got[h] == outExit && south(want) {
				lost = true
			}
		}
		if !lost {
			c.t.Fatalf("%v %s router %v inputs %v: %v got %d, not its lone-input grant %d, and no higher input holds it",
				c.nw.cfg.Topology, c.nw.cfg.Variant, c.at, c.describe(occ), arbInputs[k], got[k], want)
		}
	}
}

// describe renders an occupancy as each busy input's ring offsets.
func (c *arbCheck) describe(occ [5]int) map[noc.Port][2]int {
	m := map[noc.Port][2]int{}
	for k, in := range arbInputs {
		if occ[k] >= 0 {
			dst := c.offs[k][occ[k]]
			m[in] = [2]int{(dst.X - c.at.X + c.n) % c.n, (dst.Y - c.at.Y + c.n) % c.n}
		}
	}
	return m
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
