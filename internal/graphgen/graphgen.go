// Package graphgen synthesizes graphs with the generative families behind
// the paper's SNAP benchmarks (§VI, Fig 15b): preferential-attachment
// graphs stand in for social/web graphs (wiki-Vote, web-Google,
// soc-Slashdot, amazon0302) and 2-D lattices with shortcuts for road
// networks (roadNet-CA, whose locality the paper notes defeats FastTrack's
// advantage). It also provides the PE partitioners the workloads use.
package graphgen

import (
	"fmt"

	"fasttrack/internal/xrand"
)

// Graph is a directed graph in adjacency-list form.
type Graph struct {
	Name string
	N    int
	Out  [][]int32
}

// Edges returns the total directed edge count.
func (g *Graph) Edges() int {
	t := 0
	for _, a := range g.Out {
		t += len(a)
	}
	return t
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("%s: %d vertices, %d edges", g.Name, g.N, g.Edges())
}

// PreferentialAttachment generates a scale-free directed graph: each new
// vertex attaches m edges to earlier vertices chosen proportionally to
// their degree (Barabási–Albert style, deterministic given seed).
func PreferentialAttachment(name string, n, m int, seed uint64) *Graph {
	if m < 1 {
		m = 1
	}
	rng := xrand.New(seed)
	g := &Graph{Name: name, N: n, Out: make([][]int32, n)}
	// targets is the degree-weighted urn: every edge endpoint appears once.
	targets := make([]int32, 0, 2*n*m)
	targets = append(targets, 0)
	for v := 1; v < n; v++ {
		for e := 0; e < m && e < v; e++ {
			t := targets[rng.Intn(len(targets))]
			g.Out[v] = append(g.Out[v], t)
		}
		for _, t := range g.Out[v] {
			targets = append(targets, t)
		}
		targets = append(targets, int32(v))
	}
	return g
}

// RoadGrid generates a road-network-like graph: a √n×√n 4-neighbour lattice
// with a small fraction of shortcut edges. Almost all edges are local,
// which is what makes roadNet-CA traffic NoC-friendly without express
// links.
func RoadGrid(name string, n int, shortcutFrac float64, seed uint64) *Graph {
	side := 1
	for side*side < n {
		side++
	}
	rng := xrand.New(seed)
	g := &Graph{Name: name, N: n, Out: make([][]int32, n)}
	at := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := at(r, c)
			if v >= n {
				continue
			}
			if c+1 < side && at(r, c+1) < n {
				g.Out[v] = append(g.Out[v], int32(at(r, c+1)))
			}
			if r+1 < side && at(r+1, c) < n {
				g.Out[v] = append(g.Out[v], int32(at(r+1, c)))
			}
			if rng.Bool(shortcutFrac) {
				g.Out[v] = append(g.Out[v], int32(rng.Intn(n)))
			}
		}
	}
	return g
}

// Partition maps vertices to PEs.
type Partition []int32

// BlockPartition assigns contiguous vertex ranges to PEs — locality-
// preserving, so lattice-like graphs keep most edges on-PE or nearby.
func BlockPartition(n, pes int) Partition {
	p := make(Partition, n)
	per := (n + pes - 1) / pes
	for v := 0; v < n; v++ {
		pe := v / per
		if pe >= pes {
			pe = pes - 1
		}
		p[v] = int32(pe)
	}
	return p
}

// GridPartition maps the vertices of a (near-)square lattice onto a square
// grid of PE tiles, preserving 2-D locality: lattice edges cross PE
// boundaries only along tile perimeters, and those crossings land on
// adjacent PEs — short NoC hops. This is the spatial partitioning a road
// network would actually use.
func GridPartition(n, pes int) Partition {
	side := 1
	for side*side < n {
		side++
	}
	peSide := 1
	for peSide*peSide < pes {
		peSide++
	}
	p := make(Partition, n)
	for v := 0; v < n; v++ {
		r, c := v/side, v%side
		pr := r * peSide / side
		pc := c * peSide / side
		pe := pr*peSide + pc
		if pe >= pes {
			pe = pes - 1
		}
		p[v] = int32(pe)
	}
	return p
}

// HashPartition scatters vertices across PEs — load-balanced but
// locality-destroying, the usual choice for power-law graphs.
func HashPartition(n, pes int, seed uint64) Partition {
	p := make(Partition, n)
	for v := 0; v < n; v++ {
		h := xrand.New(seed ^ uint64(v)*0x9e3779b97f4a7c15).Uint64()
		p[v] = int32(h % uint64(pes))
	}
	return p
}
