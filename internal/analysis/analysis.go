// Package analysis provides static latency analysis for the NoCs in this
// repository, in the spirit of HopliteRT (Wasly et al., FPT 2017), the
// real-time Hoplite variant whose turn-prioritization FastTrack adopts
// (paper §II/§IV-D).
//
// Two kinds of results are offered:
//
//   - Provable in-flight bounds for baseline Hoplite under this
//     repository's static priority scheme (W always wins, N deflects east,
//     deflection loops are exactly N hops and cannot recur at a level).
//
//   - Exact isolated (zero-load) latencies for any configuration, computed
//     by replaying a single packet through the real router logic — a
//     routing oracle used by tests and by the ext-zeroload experiment.
//
// In-flight latency is measured from network entry to delivery; source
// queueing is excluded, as in HopliteRT, because the PE port has the lowest
// priority and its service time depends on the injection regulation policy
// rather than the router microarchitecture.
package analysis

import (
	"fmt"

	"fasttrack/internal/core"
	"fasttrack/internal/noc"
)

// HopliteInFlightBound returns a provable worst-case in-flight latency (in
// cycles) for a packet from src to dst on an n×n Hoplite torus under the
// static W-priority arbitration implemented here.
//
// Derivation: the X traversal and the turn ride the W input, which is
// always granted its desired port, so they cost exactly dx cycles and never
// deflect. Every southward step (and the exit) arrives on the N input and
// can be deflected at most once — a deflected packet circles the X ring in
// exactly N hops, returns on the W input, and W→S is always granted. Hence
//
//	T ≤ dx + dy + (dy + 1) · n.
func HopliteInFlightBound(n int, src, dst noc.Coord) int64 {
	dx := int64(noc.RingDelta(src.X, dst.X, n))
	dy := int64(noc.RingDelta(src.Y, dst.Y, n))
	return dx + dy + (dy+1)*int64(n)
}

// HopliteNetworkBound returns the worst HopliteInFlightBound over all
// source/destination pairs of an n×n torus: the dx = dy = n-1 corner.
func HopliteNetworkBound(n int) int64 {
	worst := noc.Coord{X: 0, Y: 0}
	far := noc.Coord{X: n - 1, Y: n - 1}
	return HopliteInFlightBound(n, worst, far)
}

// IsolatedLatency replays a single packet through cfg's real network and
// returns its exact zero-load in-flight latency in cycles, plus the hop
// breakdown. It errors if the packet is not delivered within 4·n² cycles
// (which would indicate a routing bug).
func IsolatedLatency(cfg core.Config, src, dst noc.Coord) (cycles int64, shortHops, expressHops int32, err error) {
	net, err := cfg.Build()
	if err != nil {
		return 0, 0, 0, err
	}
	pe := noc.PEIndex(src, net.Width())
	net.Offer(pe, noc.Packet{ID: 1, Src: src, Dst: dst})
	net.Step(0)
	if !net.Accepted(pe) {
		return 0, 0, 0, fmt.Errorf("analysis: idle %s refused injection at %v", cfg, src)
	}
	if len(net.Delivered()) == 1 {
		p := net.Delivered()[0]
		return 0, p.ShortHops, p.ExpressHops, nil
	}
	limit := int64(4 * net.Width() * net.Height())
	for c := int64(1); c <= limit; c++ {
		net.Step(c)
		if d := net.Delivered(); len(d) == 1 {
			return c, d[0].ShortHops, d[0].ExpressHops, nil
		}
	}
	return 0, 0, 0, fmt.Errorf("analysis: packet %v->%v lost on %s", src, dst, cfg)
}

// ZeroLoad summarizes the isolated latency distribution of a configuration.
type ZeroLoad struct {
	Config string
	// Mean and Max isolated in-flight latency over all PE pairs.
	Mean float64
	Max  int64
	// ExpressShare is the fraction of all hops taken on express links.
	ExpressShare float64
}

// ZeroLoadProfile computes exact isolated latencies for every ordered PE
// pair of cfg (excluding self pairs).
func ZeroLoadProfile(cfg core.Config) (ZeroLoad, error) {
	zl := ZeroLoad{Config: cfg.String()}
	n := cfg.N
	var sum float64
	var pairs int64
	var short, express int64
	for s := 0; s < n*n; s++ {
		for d := 0; d < n*n; d++ {
			if s == d {
				continue
			}
			cyc, sh, ex, err := IsolatedLatency(cfg, noc.PECoord(s, n), noc.PECoord(d, n))
			if err != nil {
				return zl, err
			}
			sum += float64(cyc)
			pairs++
			short += int64(sh)
			express += int64(ex)
			if cyc > zl.Max {
				zl.Max = cyc
			}
		}
	}
	if pairs > 0 {
		zl.Mean = sum / float64(pairs)
	}
	if short+express > 0 {
		zl.ExpressShare = float64(express) / float64(short+express)
	}
	return zl, nil
}
