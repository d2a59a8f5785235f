// Package overlay synthesizes multiprocessor-overlay communication traces
// in the spirit of the paper's SNIPER/PARSEC case study (Fig 15d, 32 PEs):
// each benchmark is characterized by its destination mix (local neighbour
// exchange, pipeline-stage streaming, uniform sharing, hotspot locks) and
// its synchronization depth (request/response chains). The six benchmark
// parameterizations mirror the published characters — e.g. freqmine is
// mostly local and gains nothing from a faster NoC, dedup is a deep
// pipeline, x264 mixes sharing modes.
package overlay

import (
	"fmt"
	"io"

	"fasttrack/internal/trace"
	"fasttrack/internal/xrand"
)

// Benchmark parameterizes one synthetic PARSEC-like workload. Mix weights
// need not sum to one; they are normalized.
type Benchmark struct {
	Name string
	// Destination mix weights.
	Local    float64 // forward ring neighbours within 2 hops
	Pipeline float64 // fixed stage stride across the active set
	Uniform  float64 // any active PE
	Hotspot  float64 // one of a few shared-data PEs
	// Chains is the number of request/response chains per PE.
	Chains int
	// ChainLen is the number of request/response round trips per chain;
	// deeper chains mean tighter synchronization (latency-bound).
	ChainLen int
	// Stride is the pipeline stage distance in PEs.
	Stride int
	// ComputeScale multiplies inter-message compute delays. Compute-bound
	// benchmarks (freqmine) barely exercise the NoC, which is why the
	// paper sees no FastTrack gain for them. 0 means 1.
	ComputeScale int
}

// Benchmarks returns the Fig 15d suite.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{Name: "blacksholes", Local: 0.3, Uniform: 0.7, Chains: 24, ChainLen: 1},
		{Name: "dedup", Pipeline: 0.9, Uniform: 0.1, Chains: 10, ChainLen: 8, Stride: 8},
		{Name: "fluidanimate", Local: 0.8, Uniform: 0.2, Chains: 16, ChainLen: 3},
		{Name: "freqmine", Local: 0.92, Uniform: 0.08, Chains: 20, ChainLen: 2, ComputeScale: 14},
		{Name: "vips", Pipeline: 0.6, Uniform: 0.4, Chains: 12, ChainLen: 5, Stride: 4},
		{Name: "x264", Local: 0.3, Pipeline: 0.3, Uniform: 0.3, Hotspot: 0.1, Chains: 14, ChainLen: 4, Stride: 2},
	}
}

// Trace builds the benchmark's trace for a w×h network with the first
// activePEs clients participating (the paper runs 32 threads; mapping them
// onto the lower half of an 8×8 overlay leaves the rest idle).
func Trace(b Benchmark, w, h, activePEs int, seed uint64) (*trace.Trace, error) {
	bl := trace.NewBuilder(name(b), w*h)
	if err := emit(bl, b, w, h, activePEs, seed); err != nil {
		return nil, err
	}
	return bl.Build()
}

// ActivePEs is the Fig 15d thread count on an n×n overlay: the paper's 32
// threads, on the lower half of the grid, capped at half of a smaller grid.
func ActivePEs(n int) int { return min(32, n*n/2) }

// GenVersion is bumped whenever Trace can emit different events for the same
// arguments: sweeps memoize trace headers by Spec (see TestGenVersionPin).
const GenVersion = 1

// Spec names everything Trace's output depends on, without generating it.
func Spec(b Benchmark, w, h, activePEs int, seed uint64) string {
	return fmt.Sprintf("overlay/v%d %+v grid=%dx%d active=%d seed=%d", GenVersion, b, w, h, activePEs, seed)
}

// WriteTo streams the same trace, event for event, to dst as an FTT1 file
// without materializing it; the returned header's fingerprint equals
// Trace(...).Fingerprint() for identical inputs.
func WriteTo(b Benchmark, w, h, activePEs int, seed uint64, dst io.WriteSeeker) (trace.Header, error) {
	bw, err := trace.NewWriter(dst, name(b), w*h)
	if err != nil {
		return trace.Header{}, err
	}
	if err := emit(bw, b, w, h, activePEs, seed); err != nil {
		return trace.Header{}, err
	}
	if err := bw.Close(); err != nil {
		return trace.Header{}, err
	}
	return bw.Header(), nil
}

func name(b Benchmark) string { return fmt.Sprintf("overlay/%s", b.Name) }

// emit generates the event stream into any trace.Adder (shared by the
// in-memory and streaming paths; see spmv.emit).
func emit(bl trace.Adder, b Benchmark, w, h, activePEs int, seed uint64) error {
	pes := w * h
	if activePEs <= 1 || activePEs > pes {
		return fmt.Errorf("overlay: activePEs %d out of range (2..%d)", activePEs, pes)
	}
	stride := b.Stride
	if stride <= 0 {
		stride = 1
	}
	total := b.Local + b.Pipeline + b.Uniform + b.Hotspot
	if total <= 0 {
		return fmt.Errorf("overlay: benchmark %s has no destination mix", b.Name)
	}

	rng := xrand.New(seed)
	hotspots := []int{0, activePEs / 2}
	partner := func(p int, r *xrand.Rand) int {
		x := r.Float64() * total
		switch {
		case x < b.Local:
			return (p + 1 + r.Intn(2)) % activePEs
		case x < b.Local+b.Pipeline:
			return (p + stride) % activePEs
		case x < b.Local+b.Pipeline+b.Uniform:
			for {
				q := r.Intn(activePEs)
				if q != p {
					return q
				}
			}
		default:
			return hotspots[r.Intn(len(hotspots))]
		}
	}

	scale := int32(b.ComputeScale)
	if scale < 1 {
		scale = 1
	}
	for p := 0; p < activePEs; p++ {
		r := rng.SplitBy(uint64(p))
		for c := 0; c < b.Chains; c++ {
			prev := int32(-1)
			for l := 0; l < b.ChainLen; l++ {
				q := partner(p, r)
				if q == p {
					q = (p + 1) % activePEs
				}
				delay := scale * int32(2+r.Intn(6))
				var req int32
				if prev < 0 {
					req = bl.Add(p, q, delay)
				} else {
					req = bl.Add(p, q, delay, prev)
				}
				// Response closes the round trip; the next request in the
				// chain waits for it (lock handoff / future resolution).
				prev = bl.Add(q, p, int32(1+r.Intn(3)), req)
			}
		}
	}
	return nil
}
