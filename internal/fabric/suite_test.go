package fabric_test

import (
	"testing"

	"fasttrack/internal/fasttrack"
	"fasttrack/internal/hoplite"
	"fasttrack/internal/noctest"
)

// The kernel is exercised through both router families: each test below runs
// over every row of noctest.Cases (the table the families' own
// TestShardEquivalence entry points share).

func TestConfigureShardsEdges(t *testing.T) {
	noctest.ForEach(t, "", func(t *testing.T, c noctest.Case) {
		noctest.ConfigureShardsEdges(t, c.New(t))
	})
}

func TestResetEqualsFresh(t *testing.T) {
	noctest.ForEach(t, "", noctest.ResetEqualsFresh)
}

func TestStandingOffers(t *testing.T) {
	noctest.ForEach(t, "", noctest.StandingOffers)
}

// TestShardedPoolBound saturates every case at its largest shard count for
// far longer than the fabric takes to fill: an arena smaller than the true
// occupancy bound would hit the kernel's pool-exhaustion panic.
func TestShardedPoolBound(t *testing.T) {
	noctest.ForEach(t, "", func(t *testing.T, c noctest.Case) {
		nw := c.New(t)
		if _, err := nw.ConfigureShards(c.Shards[len(c.Shards)-1]); err != nil {
			t.Fatal(err)
		}
		noctest.Saturate(nw, 0, 600)
		if nw.InFlight() == 0 {
			t.Fatal("saturated fabric is empty")
		}
	})
}

// TestStepAllocs pins the steady state of the hot loop: a warmed, saturated
// Step allocates nothing, single-shard or driving two shards itself.
func TestStepAllocs(t *testing.T) {
	top, err := fasttrack.NewTopology(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mk   func() (noctest.Fabric, error)
	}{
		{"hoplite16", func() (noctest.Fabric, error) { return hoplite.New(16, 16) }},
		{"FT(256,2,1)", func() (noctest.Fabric, error) { return fasttrack.New(fasttrack.Config{Topology: top}) }},
	} {
		for _, shards := range []int{1, 2} {
			nw, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			if a := noctest.SaturatedStepAllocs(t, nw, shards); a != 0 {
				t.Errorf("%s shards=%d: %v allocs per saturated Step, want 0", tc.name, shards, a)
			}
		}
	}
}
