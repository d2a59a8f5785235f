package traffic

import (
	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// oracleGen is the reference the production generator is held to: the
// straight-line per-cycle Bernoulli source, written for obviousness rather
// than speed. Every cycle every PE under quota draws Bool(rate), probes Dest
// on success and appends a full packet to an unbounded queue — no event
// schedule. It shares only the pattern and RNG primitives with synthetic.go.
type oracleGen struct {
	w, h, quota int
	rate        float64
	pattern     Pattern
	rngs        []*xrand.Rand
	queues      [][]noc.Packet
	generated   []int
}

func newOracle(w, h int, pattern Pattern, rate float64, quota int, seed uint64) *oracleGen {
	o := &oracleGen{w: w, h: h, quota: quota, rate: rate, pattern: pattern,
		rngs: make([]*xrand.Rand, w*h), queues: make([][]noc.Packet, w*h), generated: make([]int, w*h)}
	root := xrand.New(seed)
	for pe := range o.rngs {
		o.rngs[pe] = root.SplitBy(uint64(pe))
	}
	return o
}

func (o *oracleGen) Tick(now int64) {
	for pe, rng := range o.rngs {
		src := noc.PECoord(pe, o.w)
		if Silent(o.pattern, src, o.w, o.h) || o.generated[pe] >= o.quota || !rng.Bool(o.rate) {
			continue
		}
		dst, ok := o.pattern.Dest(src, o.w, o.h, rng)
		if !ok {
			continue
		}
		o.generated[pe]++
		o.queues[pe] = append(o.queues[pe], noc.Packet{
			ID: (int64(pe)+1)<<32 | int64(o.generated[pe]), Src: src, Dst: dst, Gen: now, Event: -1})
	}
}

func (o *oracleGen) Pending(pe int) (noc.Packet, bool) {
	if len(o.queues[pe]) == 0 {
		return noc.Packet{}, false
	}
	return o.queues[pe][0], true
}

func (o *oracleGen) Injected(pe int) { o.queues[pe] = o.queues[pe][1:] }

// Active lists the PEs holding a queued packet, ascending.
func (o *oracleGen) Active() []int {
	var out []int
	for pe, q := range o.queues {
		if len(q) > 0 {
			out = append(out, pe)
		}
	}
	return out
}

func (o *oracleGen) Done() bool {
	for pe := range o.queues {
		src := noc.PECoord(pe, o.w)
		if len(o.queues[pe]) > 0 || (!Silent(o.pattern, src, o.w, o.h) && o.generated[pe] < o.quota) {
			return false
		}
	}
	return true
}
