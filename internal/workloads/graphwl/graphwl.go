// Package graphwl turns a graph into the communication trace of a
// vertex-centric push-mode graph analytics accelerator (the paper's
// Fig 15b case study): each superstep, every vertex pushes an update along
// each of its out-edges; cross-PE edges become NoC messages. Supersteps are
// separated by per-PE barriers (bulk-synchronous execution).
package graphwl

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"

	"fasttrack/internal/graphgen"
	"fasttrack/internal/trace"
)

// Options tunes trace generation.
type Options struct {
	// Supersteps is the number of BSP rounds (default 2).
	Supersteps int
	// ComputeDelay models per-update vertex compute (default 1).
	ComputeDelay int32
}

func (o Options) withDefaults() Options {
	if o.Supersteps == 0 {
		o.Supersteps = 2
	}
	if o.ComputeDelay == 0 {
		o.ComputeDelay = 1
	}
	return o
}

// Trace builds the push-mode BSP trace for g under the given partition on a
// w×h PE grid.
func Trace(g *graphgen.Graph, part graphgen.Partition, w, h int, opts Options) (*trace.Trace, error) {
	b := trace.NewBuilder(name(g), w*h)
	if err := emit(b, g, part, w, h, opts); err != nil {
		return nil, err
	}
	return b.Build()
}

// GenVersion is bumped whenever Trace can emit different events for the same
// arguments: sweeps memoize trace headers by Spec (see TestGenVersionPin).
const GenVersion = 1

// Spec names everything Trace's output depends on, without generating it.
// The partition enters by content hash, which covers its kind and seed.
func Spec(g *graphgen.Graph, part graphgen.Partition, w, h int, opts Options) string {
	opts = opts.withDefaults()
	ph := fnv.New64a()
	_ = binary.Write(ph, binary.LittleEndian, []int32(part)) // a hash never fails a write
	return fmt.Sprintf("graph/v%d %s n=%d edges=%d part=%016x grid=%dx%d steps=%d delay=%d",
		GenVersion, g.Name, g.N, g.Edges(), ph.Sum64(), w, h, opts.Supersteps, opts.ComputeDelay)
}

// WriteTo streams the same trace, event for event, to dst as an FTT1 file
// without materializing it; the returned header's fingerprint equals
// Trace(...).Fingerprint() for identical inputs.
func WriteTo(g *graphgen.Graph, part graphgen.Partition, w, h int, opts Options, dst io.WriteSeeker) (trace.Header, error) {
	bw, err := trace.NewWriter(dst, name(g), w*h)
	if err != nil {
		return trace.Header{}, err
	}
	if err := emit(bw, g, part, w, h, opts); err != nil {
		return trace.Header{}, err
	}
	if err := bw.Close(); err != nil {
		return trace.Header{}, err
	}
	return bw.Header(), nil
}

func name(g *graphgen.Graph) string { return fmt.Sprintf("graph/%s", g.Name) }

// emit generates the event stream into any trace.Adder (shared by the
// in-memory and streaming paths; see spmv.emit).
func emit(b trace.Adder, g *graphgen.Graph, part graphgen.Partition, w, h int, opts Options) error {
	opts = opts.withDefaults()
	pes := w * h
	if len(part) != g.N {
		return fmt.Errorf("graphwl: partition covers %d vertices, graph has %d", len(part), g.N)
	}

	// Source-side combining (standard in vertex-centric accelerators):
	// updates from one PE to the same destination vertex merge into a
	// single message, so a high-in-degree hub receives at most one message
	// per source PE per superstep rather than one per edge.
	type msg struct{ src, dst int }
	seen := map[[2]int32]struct{}{}
	var msgs []msg
	for u := 0; u < g.N; u++ {
		pu := int(part[u])
		if pu >= pes {
			return fmt.Errorf("graphwl: vertex %d mapped to PE %d of %d", u, pu, pes)
		}
		for _, v := range g.Out[u] {
			pv := int(part[v])
			if pv == pu {
				continue
			}
			key := [2]int32{int32(pu), v}
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = struct{}{}
			msgs = append(msgs, msg{src: pu, dst: pv})
		}
	}
	if len(msgs) == 0 {
		return fmt.Errorf("graphwl: graph %s has no cross-PE edges on %d PEs", g.Name, pes)
	}

	// Every round sends msgs. Each later one adds a barrier per receiving
	// PE, waiting on the messages it received, and gates that PE's sends.
	recv := make([]bool, pes)
	barriers, gated := 0, 0
	for _, m := range msgs {
		if !recv[m.dst] {
			recv[m.dst] = true
			barriers++
		}
	}
	for _, m := range msgs {
		if recv[m.src] {
			gated++
		}
	}
	later := opts.Supersteps - 1
	b.Grow(opts.Supersteps*len(msgs)+later*barriers, later*(len(msgs)+gated))

	incoming := make([][]int32, pes)
	var deps []int32 // reused: Add does not retain deps
	for step := 0; step < opts.Supersteps; step++ {
		barrier := make(map[int]int32)
		if step > 0 {
			for p := 0; p < pes; p++ {
				if len(incoming[p]) > 0 {
					barrier[p] = b.Add(p, p, opts.ComputeDelay, incoming[p]...)
				}
			}
		}
		next := make([][]int32, pes)
		for k, m := range msgs {
			deps = deps[:0]
			if bar, ok := barrier[m.src]; ok {
				deps = append(deps, bar)
			}
			ev := b.Add(m.src, m.dst, opts.ComputeDelay+int32(k%5), deps...)
			next[m.dst] = append(next[m.dst], ev)
		}
		incoming = next
	}
	return nil
}

// Benchmark pairs a synthetic graph with the partitioner the real system
// would use.
type Benchmark struct {
	Graph *graphgen.Graph
	// Hash selects scatter partitioning (power-law graphs); otherwise the
	// locality-preserving block partition is used (road networks).
	Hash bool
}

// Benchmarks returns synthetic stand-ins for the paper's Fig 15b SNAP
// suite. roadNet-CA uses a lattice + block partition, so its traffic stays
// local — the paper calls out exactly this benchmark as not benefiting
// from FastTrack.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{Graph: graphgen.PreferentialAttachment("wiki-Vote", 3000, 12, 201), Hash: true},
		{Graph: graphgen.PreferentialAttachment("web-Stanford", 4500, 8, 202), Hash: true},
		{Graph: graphgen.PreferentialAttachment("web-Google", 5000, 6, 203), Hash: true},
		{Graph: graphgen.PreferentialAttachment("soc-Slashdot0902", 4000, 10, 204), Hash: true},
		{Graph: graphgen.RoadGrid("roadNet-CA", 4900, 0.01, 205)},
		{Graph: graphgen.PreferentialAttachment("amazon0302", 4200, 4, 206), Hash: true},
	}
}

// PartitionFor returns the benchmark's partition for a pes-PE system:
// scatter for power-law graphs, 2-D spatial tiles for lattices.
func (b Benchmark) PartitionFor(pes int) graphgen.Partition {
	if b.Hash {
		return graphgen.HashPartition(b.Graph.N, pes, 0xfeed)
	}
	return graphgen.GridPartition(b.Graph.N, pes)
}
