package fasttrack

import (
	"errors"

	"fasttrack/internal/fabric"
	"fasttrack/internal/noc"
)

// output indices into the per-router staging arrays.
const (
	oESh = iota
	oEEx
	oSSh
	oSEx
	numOuts
)

// Network is an N×N FastTrack torus: the shared fabric kernel (register
// planes, packet pool, occupancy-driven stepping, sharding — see
// internal/fabric) with the FastTrack arbiter plugged in. The kernel's four
// link-register planes are indexed by the input noc.Port (PortWSh, PortWEx,
// PortNSh, PortNEx); express registers exist for every router but are only
// ever populated at routers whose class carries the corresponding ports.
// Create with New.
type Network struct {
	fabric.Kernel
	cfg Config
	n   int

	// Express pipelines (Config.ExpressPipeline > 0, Hyperflex-style):
	// xPipeR[i*stages:(i+1)*stages] are the extra register stages of the X
	// express link leaving router i, oldest first; likewise yPipeR for Y
	// links. A pipelined express grant cannot latch downstream immediately,
	// so it parks in exPend/syPend and the kernel's post-route pass
	// (pipeStep) shifts it through the stages.
	xPipeR, yPipeR []int32
	exPend, syPend []int32

	// Dense reference path: full-packet link registers (in, by input port),
	// per-output staging for the current Step (outs), and the full-packet
	// form of the express pipelines. SetDense(true) allocates them; the
	// sparse path never does.
	in           [4][]fabric.Slot
	outs         [numOuts][]fabric.Slot
	xPipe, yPipe []fabric.Slot
	dense        bool

	// tabs holds the memoized routing-decision tables the sparse arbiter
	// replays, shared by instances with the same (topology, variant); see
	// tables.go.
	tabs *routeTables
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
	nw := &Network{cfg: cfg, n: n}
	nw.tabs = nw.sharedTables()
	var post fabric.PostFunc
	if stages > 0 {
		regs := make([]int32, (2*stages+2)*sz)
		fabric.Fill(regs, -1)
		nw.xPipeR, regs = regs[:stages*sz], regs[stages*sz:]
		nw.yPipeR, regs = regs[:stages*sz], regs[stages*sz:]
		nw.exPend, nw.syPend = regs[:sz], regs[sz:]
		post = nw.pipeStep
	}
	nw.Init(fabric.Spec{W: n, H: n, Planes: 4, Stages: stages}, nw, post)
	return nw, nil
}

// ConfigureShards implements noc.ShardedNetwork; the dense reference path
// cannot shard.
func (nw *Network) ConfigureShards(s int) (int, error) {
	if nw.dense {
		return 0, errors.New("fasttrack: dense reference path cannot shard")
	}
	return nw.Kernel.ConfigureShards(s)
}

// Config returns the network's configuration.
func (nw *Network) Config() Config { return nw.cfg }

// SetDense selects the reference stepping path: clear and route all N²
// routers every cycle instead of only occupied ones. The two paths are
// bit-exact (the golden equivalence tests compare them); the dense path
// exists as the straightforward baseline for those tests and for
// benchmarking the sparse path's speedup. Select before the first Step; the
// first SetDense(true) allocates the full-packet registers.
func (nw *Network) SetDense(d bool) {
	nw.dense = d
	if !d || nw.in[0] != nil {
		return
	}
	sz, stages := nw.n*nw.n, nw.cfg.ExpressPipeline
	regs := make([]fabric.Slot, (len(nw.in)+len(nw.outs)+2*stages)*sz)
	take := func(k int) []fabric.Slot {
		r := regs[:k:k]
		regs = regs[k:]
		return r
	}
	for p := range nw.in {
		nw.in[p] = take(sz)
	}
	for o := range nw.outs {
		nw.outs[o] = take(sz)
	}
	if stages > 0 {
		nw.xPipe, nw.yPipe = take(stages*sz), take(stages*sz)
	}
}

// Step advances the network one clock cycle. The kernel visits only routers
// holding an in-flight input, a pending offer, or an occupied
// express-pipeline stage, in ascending router index — identical to the dense
// path's row-major scan — so delivery order, and with it every downstream
// floating-point accumulation, is bit-exact with SetDense(true).
func (nw *Network) Step(now int64) {
	if nw.dense {
		nw.stepDense(now)
		return
	}
	nw.Kernel.Step(now)
}

// shiftPipe advances one express-link pipeline: in enters the youngest
// stage and the oldest stage pops out.
func shiftPipe[T any](pipe []T, in T) (out T) {
	out = pipe[0]
	copy(pipe, pipe[1:])
	pipe[len(pipe)-1] = in
	return out
}

// pipeStep is the kernel's post-route hook on pipelined configurations: it
// shifts router i's express pipelines one stage, latches any popped packet
// onto the downstream express input, and asks to be kept alive while a stage
// is occupied — such routers must keep shifting even when nothing routes
// there. The downstream latch may cross a shard boundary, which is race-free
// because router i is the express link's only driver.
func (nw *Network) pipeStep(sh *fabric.Shard, i int) (occupied bool) {
	n, d, s := nw.n, nw.cfg.Topology.D, nw.cfg.ExpressPipeline
	x, y := i%n, i/n
	ex := shiftPipe(nw.xPipeR[i*s:(i+1)*s], nw.exPend[i])
	sy := shiftPipe(nw.yPipeR[i*s:(i+1)*s], nw.syPend[i])
	nw.exPend[i], nw.syPend[i] = -1, -1
	if ex >= 0 {
		nw.latchR(sh, noc.PortWEx, y*n+(x+d)%n, ex)
	}
	if sy >= 0 {
		nw.latchR(sh, noc.PortNEx, ((y+d)%n)*n+x, sy)
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
func (nw *Network) latchR(sh *fabric.Shard, in noc.Port, j int, r int32) {
	nw.Next[in][j] = r
	sh.Mark(j)
}

// stepDense is the reference path: clear all staging, route all routers,
// latch all links.
func (nw *Network) stepDense(now int64) {
	s0 := nw.BeginDense(now)
	for o := range nw.outs {
		clear(nw.outs[o])
	}
	for y := 0; y < nw.n; y++ {
		for x := 0; x < nw.n; x++ {
			nw.route(s0, x, y, now)
		}
	}
	nw.latch(s0, now)
}

// latch moves output staging onto the downstream input registers. Short
// links connect adjacent routers; express links connect routers D apart and
// are traversed in a single cycle — the FastTrack premise.
func (nw *Network) latch(s0 *fabric.Shard, now int64) {
	n, d, st := nw.n, nw.cfg.Topology.D, nw.cfg.ExpressPipeline
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			i := y*n + x
			if s := nw.outs[oESh][i]; s.OK {
				s.P.ShortHops++
				s0.Counters.ShortTraversals++
				if s0.Obs != nil {
					s0.Obs.OnHop(now, i, noc.PortESh, &s.P)
				}
				nw.in[noc.PortWSh][y*n+(x+1)%n] = s
			} else {
				nw.in[noc.PortWSh][y*n+(x+1)%n] = fabric.Slot{}
			}
			if s := nw.outs[oSSh][i]; s.OK {
				s.P.ShortHops++
				s0.Counters.ShortTraversals++
				if s0.Obs != nil {
					s0.Obs.OnHop(now, i, noc.PortSSh, &s.P)
				}
				nw.in[noc.PortNSh][((y+1)%n)*n+x] = s
			} else {
				nw.in[noc.PortNSh][((y+1)%n)*n+x] = fabric.Slot{}
			}
			ex := nw.outs[oEEx][i]
			if ex.OK {
				ex.P.ExpressHops++
				s0.Counters.ExpressTraversals++
				if s0.Obs != nil {
					s0.Obs.OnExpressHop(now, i, noc.PortEEx, &ex.P)
				}
			}
			if st > 0 {
				ex = shiftPipe(nw.xPipe[i*st:(i+1)*st], ex)
			}
			nw.in[noc.PortWEx][y*n+(x+d)%n] = ex

			sy := nw.outs[oSEx][i]
			if sy.OK {
				sy.P.ExpressHops++
				s0.Counters.ExpressTraversals++
				if s0.Obs != nil {
					s0.Obs.OnExpressHop(now, i, noc.PortSEx, &sy.P)
				}
			}
			if st > 0 {
				sy = shiftPipe(nw.yPipe[i*st:(i+1)*st], sy)
			}
			nw.in[noc.PortNEx][((y+d)%n)*n+x] = sy
		}
	}
}
