package fasttrack

import (
	"fmt"

	"fasttrack/internal/noc"
)

// A preference list depends on the packet's destination only through five
// offset-class bits of its ring offsets (dx, dy) — eastward and southward
// hops still to go — and, on the PE port alone, on the router's class. The
// bits are independent of N, D and R; a network computes them per axis
// (Network.xcls, ycls) and the arbiter ORs the two lookups into a row key.
const (
	cX0 uint8 = 1 << iota // dx = 0: in the destination column
	cXA                   // D | dx: can ride X express to the turn column
	cXE                   // D | ((dx − D) mod N): still aligned after one X express hop east
	cY0                   // dy = 0: in the destination row
	cYA                   // D | dy: can ride Y express to the exit
	cHX                   // the router has X express ports (PE rows only)
	cHY                   // the router has Y express ports (PE rows only)

	offsetBits = cX0 | cXA | cXE | cY0 | cYA
	routerBits = cHX | cHY
)

// cand is one preference-list entry packed in a byte: the output index
// (oESh..oSEx) in the low two bits, a presence bit, and the two marks. The
// zero cand ends a list.
type cand uint8

const (
	eSh = cand(oESh) | 4
	eEx = cand(oEEx) | 4
	sSh = cand(oSSh) | 4
	sEx = cand(oSEx) | 4
	// dlv marks the NoC exit tap: the packet leaves through the named driver
	// but is handed to the client instead of the downstream link.
	dlv cand = 8
	// mis marks a candidate that moves the packet off its dimension-ordered
	// path (a true deflection, counted on the packet).
	mis cand = 16
)

func (c cand) out() uint8 { return uint8(c & 3) }

// prefs is one preference list: outputs in the order the arbiter tries them.
type prefs [numOuts]cand

// Input sets a rule applies to. The two short inputs share every rule.
const (
	inWEx = 1 << noc.PortWEx
	inNEx = 1 << noc.PortNEx
	inSh  = 1<<noc.PortWSh | 1<<noc.PortNSh
	inPE  = 1 << noc.PortPE
)

// rule is one row of the policy: for a packet on any input in ins whose
// class has every bit of when set, try the outputs of outs in order.
type rule struct {
	ins  uint8
	when uint8
	outs prefs
}

// rules is FastTrack's routing policy (§IV-C/D), written once per variant and
// matched top-down: the first row naming the input whose bits are all set in
// the packet's class decides. The lists implement dimension-ordered routing
// with express links used only when the remaining offset is a multiple of D,
// express→short transfers only at turns and exits, short→express upgrades on
// Full routers only, and the §IV-D livelock repertoire: deflected exit
// traffic may take either E port, preferring the express ring back when that
// keeps it aligned (it returns as WEx, the top-priority input). Every
// in-flight list ends in a recoverable emergency tail, so the assignment is
// total: a misrouted packet resumes dimension-ordered routing, and a
// misaligned express packet pops off to the short lane at the next router.
// Full routers spill onto any output; Inject routers keep each packet in its
// lane, which is total because each lane is a self-contained 2-in/2-out
// Hoplite plane. The PE port never misroutes: when its list is used up the
// client stalls.
var rules = [2][]rule{
	VariantFull: {
		// The NoC exit shares the SSh driver (as in Hoplite, §II), so a
		// router delivers at most one packet per cycle.
		{inWEx, cX0 | cY0, prefs{sSh | dlv, eSh | mis, eEx | mis, sEx | mis}},
		{inWEx, cX0 | cYA, prefs{sEx, sSh, eSh | mis, eEx | mis}}, // turn, staying express
		{inWEx, cX0, prefs{sSh, eSh | mis, eEx | mis, sEx | mis}},
		{inWEx, cXA, prefs{eEx, eSh | mis, sSh | mis, sEx | mis}},
		{inWEx, 0, prefs{eSh, eEx | mis, sSh | mis, sEx | mis}}, // misaligned: pop off
		{inNEx | inSh, cX0 | cY0 | cXE, prefs{sSh | dlv, eEx | mis, eSh | mis, sEx | mis}},
		{inNEx | inSh, cX0 | cY0, prefs{sSh | dlv, eSh | mis, eEx | mis, sEx | mis}},
		{inNEx, cX0 | cYA | cXE, prefs{sEx, eEx | mis, eSh | mis, sSh | mis}},
		{inNEx, cX0 | cYA, prefs{sEx, eSh | mis, eEx | mis, sSh | mis}},
		{inNEx, cX0, prefs{sSh, eSh | mis, eEx | mis, sEx | mis}}, // misaligned: pop off
		{inSh, cX0 | cYA | cXE, prefs{sEx, sSh, eEx | mis, eSh | mis}},
		{inSh, cX0 | cYA, prefs{sEx, sSh, eSh | mis, eEx | mis}},
		{inSh, cX0 | cXE, prefs{sSh, eEx | mis, eSh | mis, sEx | mis}},
		{inSh, cX0, prefs{sSh, eSh | mis, eEx | mis, sEx | mis}},
		// dx ≠ 0 on N inputs: a misrouted packet resumes X-first routing.
		{inNEx | inSh, cXA, prefs{eEx, eSh, sSh | mis, sEx | mis}},
		{inNEx | inSh, 0, prefs{eSh, eEx | mis, sSh | mis, sEx | mis}},
		{inPE, cX0 | cY0, prefs{sSh | dlv}}, // self-addressed: loops through the exit
		{inPE, cX0 | cYA | cHY, prefs{sEx, sSh}},
		{inPE, cX0, prefs{sSh}},
		{inPE, cXA | cHX, prefs{eEx, eSh}},
		{inPE, 0, prefs{eSh}},
	},
	VariantInject: {
		// The express plane taps its own SEx driver for the exit — lane
		// isolation, no Ex→Sh crossing (Fig 9c).
		{inWEx, cX0 | cY0, prefs{sEx | dlv, sSh | dlv, eEx | mis}},
		{inWEx, cX0 | cYA, prefs{sEx, sSh, eEx | mis}},
		{inWEx, cX0, prefs{sSh, eEx | mis, sEx | mis}},
		{inWEx, cXA, prefs{eEx, sEx | mis}},
		{inWEx, 0, prefs{eSh, eEx | mis, sEx | mis}},
		{inNEx, cX0 | cY0, prefs{sEx | dlv, eEx | mis}},
		{inNEx, cYA, prefs{sEx, eEx | mis}},
		{inNEx, 0, prefs{eEx | mis, sEx | mis}},
		{inSh, cX0 | cY0, prefs{sSh | dlv, eSh | mis}},
		{inSh, cX0, prefs{sSh, eSh | mis}},
		{inSh, 0, prefs{eSh, sSh | mis}},
		// The lane is chosen for the whole flight: express only when the X
		// ride, the turn, the Y ride and the exit tap all stay inside the
		// express network. The turn router and the exit share this row's
		// residue mod R (R | D), so the router's class decides all four.
		{inPE, cX0 | cY0, prefs{sSh | dlv}},
		{inPE, cX0 | cYA | cHY, prefs{sEx, sSh}},
		{inPE, cX0, prefs{sSh}},
		{inPE, cXA | cYA | cHX | cHY, prefs{eEx, eSh}},
		{inPE, 0, prefs{eSh}},
	},
}

// table is one variant's policy as a lookup: table[port][class] is the list
// for a packet on input port with that class. In-flight rows are keyed by
// the offset bits alone.
type table [noc.PortPE + 1][(offsetBits | routerBits) + 1]prefs

// policy is rules compiled into lookups, one per variant.
var policy = [2]table{compile(rules[VariantFull]), compile(rules[VariantInject])}

// compile resolves every (input, class) key against rs, top-down.
func compile(rs []rule) (t table) {
	for port := range t {
		for class := range t[port] {
			i := 0
			for ; i < len(rs); i++ {
				r := rs[i]
				if r.ins&(1<<port) != 0 && uint8(class)&r.when == r.when {
					break
				}
			}
			if i == len(rs) {
				panic(fmt.Sprintf("fasttrack: no rule for input %v class %#x", noc.Port(port), class))
			}
			t[port][class] = rs[i].outs
		}
	}
	return t
}

// axisClasses returns an axis's class bits indexed by value k ∈ [0, n): the
// offset bits of ring offset k (zero, aligned, and — on X — aligned after
// one express hop east) together with the express-port bit of coordinate k.
func axisClasses(t Topology, zero, aligned, afterEx, has uint8) []uint8 {
	n, d := t.N, t.D
	cls := make([]uint8, n)
	for k := range cls {
		if k == 0 {
			cls[k] |= zero
		}
		if k%d == 0 {
			cls[k] |= aligned
		}
		if (k-d+n)%n%d == 0 {
			cls[k] |= afterEx
		}
		if k%t.R == 0 { // Topology.HasXExpress and HasYExpress
			cls[k] |= has
		}
	}
	return cls
}

// delta returns the eastward/southward ring offset from a to b on an n-ring:
// noc.RingDelta in branch form for the two hot class lookups.
func delta(a, b, n int) int {
	d := b - a
	if d < 0 {
		d += n
	}
	return d
}
