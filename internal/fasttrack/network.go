package fasttrack

import (
	"math/bits"

	"fasttrack/internal/fabric"
	"fasttrack/internal/noc"
)

// output indices into the preference lists and the per-router busy mask.
const (
	oESh = iota
	oEEx
	oSSh
	oSEx
	numOuts
)

// Network is an N×N FastTrack torus: the shared fabric kernel (register
// planes, packet pool, occupancy bitset — see internal/fabric) stepped by the
// FastTrack arbiter. The kernel's four link-register planes are indexed by
// the input noc.Port (PortWSh, PortWEx, PortNSh, PortNEx); express registers
// exist for every router but are only ever populated at routers whose class
// carries the corresponding ports. Create with New.
type Network struct {
	fabric.Kernel
	cfg Config
	n   int

	// Express pipelines (Config.ExpressPipeline > 0, Hyperflex-style):
	// xPipeR[i*stages:(i+1)*stages] are the extra register stages of the X
	// express link leaving router i, oldest first; likewise yPipeR for Y
	// links. A pipelined express grant cannot latch downstream immediately,
	// so it parks in exPend/syPend and Step's pipeline pass (pipeStep)
	// shifts it through the stages.
	xPipeR, yPipeR []int32
	exPend, syPend []int32
	keep           []uint64 // routers whose pipelines still hold a packet

	// The arbiter's state beyond the kernel (policy.go): pol is the
	// variant's compiled policy, and xcls[k], ycls[k] hold the class bits of
	// ring offset k on each axis plus cHX/cHY when column/row k carries
	// express ports.
	pol        *table
	xcls, ycls []uint8
	// offRow[i] is the PE-list row of router i's current offer, computed once
	// when the offer is presented: a standing offer is refused cycle after
	// cycle, and its row never changes.
	offRow []uint8
}

// New builds an idle FastTrack network for the given configuration.
func New(cfg Config) (*Network, error) {
	if _, err := NewTopology(cfg.Topology.N, cfg.Topology.D, cfg.Topology.R); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, stages := cfg.Topology.N, cfg.ExpressPipeline
	sz := n * n
	nw := &Network{cfg: cfg, n: n, pol: &policy[cfg.Variant],
		xcls:   axisClasses(cfg.Topology, cX0, cXA, cXE, cHX),
		ycls:   axisClasses(cfg.Topology, cY0, cYA, 0, cHY),
		offRow: make([]uint8, n*n),
	}
	if stages > 0 {
		regs := make([]int32, (2*stages+2)*sz)
		fabric.Fill(regs, -1)
		nw.xPipeR, regs = regs[:stages*sz], regs[stages*sz:]
		nw.yPipeR, regs = regs[:stages*sz], regs[stages*sz:]
		nw.exPend, nw.syPend = regs[:sz], regs[sz:]
		nw.keep = make([]uint64, (sz+63)/64)
	}
	nw.Init(fabric.Spec{W: n, H: n, Planes: 4, Stages: stages})
	return nw, nil
}

// Step advances the network one cycle: every active router routes its inputs
// in ascending router index (fabric.Kernel.Begin); on pipelined
// configurations the pipeline pass then runs, ascending over the routers
// that routed or still hold a pipelined packet; then the links latch.
func (nw *Network) Step(now int64) {
	active := nw.Begin(now)
	for wd, b := range active {
		for ; b != 0; b &= b - 1 {
			i := wd<<6 + bits.TrailingZeros64(b)
			nw.route(i, i%nw.n, i/nw.n, now)
		}
	}
	if nw.keep != nil {
		for wd, b := range active {
			for b |= nw.keep[wd]; b != 0; b &= b - 1 {
				bit := b & -b
				nw.keep[wd] &^= bit
				if nw.pipeStep(wd<<6 + bits.TrailingZeros64(b)) {
					nw.keep[wd] |= bit
				}
			}
		}
	}
	nw.End()
}

// Offer presents p for injection at PE pe this cycle.
func (nw *Network) Offer(pe int, p noc.Packet) {
	nw.Kernel.Offer(pe, p)
	nw.offRow[pe] = nw.peRow(pe, p.Dst)
}

// Hold presents p as a standing offer at PE pe (fabric.Kernel.Hold).
func (nw *Network) Hold(pe int, p noc.Packet) {
	nw.Kernel.Hold(pe, p)
	nw.offRow[pe] = nw.peRow(pe, p.Dst)
}

// Config returns the network's configuration.
func (nw *Network) Config() Config { return nw.cfg }

// shiftPipe advances one express-link pipeline: in enters the youngest
// stage and the oldest stage pops out.
func shiftPipe(pipe []int32, in int32) (out int32) {
	out = pipe[0]
	copy(pipe, pipe[1:])
	pipe[len(pipe)-1] = in
	return out
}

// pipeStep shifts router i's express pipelines one stage, latches any popped
// packet onto the downstream express input, and reports whether a stage is
// still occupied — such routers must keep shifting even when nothing routes
// there.
func (nw *Network) pipeStep(i int) (occupied bool) {
	n, d, s := nw.n, nw.cfg.Topology.D, nw.cfg.ExpressPipeline
	x, y := i%n, i/n
	ex := shiftPipe(nw.xPipeR[i*s:(i+1)*s], nw.exPend[i])
	sy := shiftPipe(nw.yPipeR[i*s:(i+1)*s], nw.syPend[i])
	nw.exPend[i], nw.syPend[i] = -1, -1
	if ex >= 0 {
		nw.latchR(noc.PortWEx, y*n+(x+d)%n, ex)
	}
	if sy >= 0 {
		nw.latchR(noc.PortNEx, ((y+d)%n)*n+x, sy)
	}
	for k := i * s; k < (i+1)*s; k++ {
		if nw.xPipeR[k] >= 0 || nw.yPipeR[k] >= 0 {
			return true
		}
	}
	return false
}

// latchR writes pool index r onto router j's next-cycle input register for
// the given input port and wakes j.
func (nw *Network) latchR(in noc.Port, j int, r int32) {
	nw.Next[in][j] = r
	nw.Mark(j)
}
