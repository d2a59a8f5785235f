package graphgen

import (
	"testing"
	"testing/quick"
)

func checkGraph(t *testing.T, g *Graph) {
	t.Helper()
	if len(g.Out) != g.N {
		t.Fatalf("%s: adjacency length %d != N %d", g.Name, len(g.Out), g.N)
	}
	for v, adj := range g.Out {
		for _, u := range adj {
			if u < 0 || int(u) >= g.N {
				t.Fatalf("%s: edge %d->%d out of range", g.Name, v, u)
			}
		}
	}
}

func TestGeneratorsValid(t *testing.T) {
	for _, g := range []*Graph{
		PreferentialAttachment("pa", 800, 4, 1),
		RoadGrid("road", 900, 0.01, 2),
	} {
		checkGraph(t, g)
		if g.Edges() == 0 {
			t.Errorf("%s has no edges", g.Name)
		}
	}
}

func TestPreferentialAttachmentHasHubs(t *testing.T) {
	g := PreferentialAttachment("pa", 2000, 4, 7)
	in := make([]int, g.N)
	for _, adj := range g.Out {
		for _, u := range adj {
			in[u]++
		}
	}
	maxIn, total := 0, 0
	for _, d := range in {
		total += d
		if d > maxIn {
			maxIn = d
		}
	}
	mean := float64(total) / float64(g.N)
	if float64(maxIn) < 10*mean {
		t.Errorf("expected hub vertices: max in-degree %d vs mean %.1f", maxIn, mean)
	}
}

func TestRoadGridIsLocalUnderGridPartition(t *testing.T) {
	g := RoadGrid("road", 4900, 0.01, 5)
	part := GridPartition(g.N, 64)
	cross, local := 0, 0
	for v, adj := range g.Out {
		for _, u := range adj {
			if part[v] == part[u] {
				local++
			} else {
				cross++
			}
		}
	}
	if frac := float64(cross) / float64(cross+local); frac > 0.35 {
		t.Errorf("road grid should be mostly local: %.0f%% cross-PE", 100*frac)
	}
}

func TestHashPartitionScatters(t *testing.T) {
	g := PreferentialAttachment("pa", 3000, 6, 9)
	part := HashPartition(g.N, 64, 1)
	cross, local := 0, 0
	for v, adj := range g.Out {
		for _, u := range adj {
			if part[v] == part[u] {
				local++
			} else {
				cross++
			}
		}
	}
	if frac := float64(cross) / float64(cross+local); frac < 0.8 {
		t.Errorf("hash partition should scatter: only %.0f%% cross-PE", 100*frac)
	}
}

func TestPartitionsCoverAndBound(t *testing.T) {
	f := func(nn uint16, pp uint8) bool {
		n := int(nn%5000) + 1
		pes := int(pp%64) + 1
		for _, part := range []Partition{BlockPartition(n, pes), HashPartition(n, pes, 3), GridPartition(n, pes)} {
			if len(part) != n {
				return false
			}
			for _, p := range part {
				if p < 0 || int(p) >= pes {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBlockPartitionContiguous(t *testing.T) {
	part := BlockPartition(100, 8)
	for v := 1; v < 100; v++ {
		if part[v] < part[v-1] {
			t.Fatalf("block partition not monotone at %d", v)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := PreferentialAttachment("a", 500, 4, 11)
	b := PreferentialAttachment("a", 500, 4, 11)
	if a.Edges() != b.Edges() {
		t.Fatal("same seed, different graphs")
	}
	for v := range a.Out {
		for i := range a.Out[v] {
			if a.Out[v][i] != b.Out[v][i] {
				t.Fatal("same seed, different adjacency")
			}
		}
	}
}
