package noctest

import (
	"testing"

	"fasttrack/internal/fasttrack"
	"fasttrack/internal/hoplite"
	"fasttrack/internal/noc"
)

// Case is one network configuration and offer schedule of the fabric suite.
type Case struct {
	Family string // "hoplite" or "fasttrack": the package whose tests run it
	Name   string
	Mk     func() (Fabric, error)
	Seed   uint64
	Rate   float64
	Cycles int
	Shards []int
}

// Cases is the one table both router families' shard tests run: every
// kernel-level property is checked against each entry.
var Cases = []Case{
	hopliteCase("8x8/low", 8, 8, 0.1, 200, 2, 4),
	hopliteCase("8x8/sat", 8, 8, 0.9, 120, 2, 4, 8),
	hopliteCase("16x4/odd-shards", 16, 4, 0.5, 150, 3),
	fastTrackCase("full-d4r1/low", 4, 1, fasttrack.VariantFull, 0, 0.1, 200, 2, 4),
	fastTrackCase("full-d4r1/sat", 4, 1, fasttrack.VariantFull, 0, 0.9, 120, 2, 4, 8),
	fastTrackCase("inject-d4r4/sat", 4, 4, fasttrack.VariantInject, 0, 0.9, 120, 2, 4),
	fastTrackCase("full-d2r2-pipe2/sat", 2, 2, fasttrack.VariantFull, 2, 0.9, 120, 2, 4),
}

func hopliteCase(name string, w, h int, rate float64, cycles int, shards ...int) Case {
	return Case{Family: "hoplite", Name: name, Seed: 0xF00D, Rate: rate, Cycles: cycles, Shards: shards,
		Mk: func() (Fabric, error) { return hoplite.New(w, h) }}
}

func fastTrackCase(name string, d, r int, v fasttrack.Variant, pipe int, rate float64, cycles int, shards ...int) Case {
	return Case{Family: "fasttrack", Name: name, Seed: 0xBEEF, Rate: rate, Cycles: cycles, Shards: shards,
		Mk: func() (Fabric, error) {
			top, err := fasttrack.NewTopology(8, d, r)
			if err != nil {
				return nil, err
			}
			return fasttrack.New(fasttrack.Config{Topology: top, Variant: v, ExpressPipeline: pipe})
		}}
}

// New builds the case's network, failing the test on error.
func (c Case) New(t testing.TB) Fabric {
	t.Helper()
	nw, err := c.Mk()
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// ForEach runs f as a subtest per case of the given family ("" for all).
func ForEach(t *testing.T, family string, f func(t *testing.T, c Case)) {
	for _, c := range Cases {
		if family != "" && c.Family != family {
			continue
		}
		name := c.Name
		if family == "" {
			name = c.Family + "/" + name
		}
		t.Run(name, func(t *testing.T) { f(t, c) })
	}
}

// RunShardEquivalence is the network-level golden gate for one case: the
// sharded step protocol must be bit-identical to the sequential engine.
func RunShardEquivalence(t *testing.T, c Case) {
	ShardEquivalence(t, func() Fabric { return c.New(t) }, c.Shards, c.Seed, c.Cycles, c.Rate)
}

// ConfigureShardsEdges pins the edge semantics: the shard count clamps to
// the row count, shard 0 then owns exactly the first row, ConfigureShards(1)
// restores the single-shard engine, and a count below 1 is rejected.
func ConfigureShardsEdges(t *testing.T, nw Fabric) {
	rows := nw.Height()
	if got, err := nw.ConfigureShards(4 * rows); err != nil || got != rows {
		t.Fatalf("ConfigureShards(%d) = %d, %v; want clamp to %d rows", 4*rows, got, err, rows)
	}
	if lo, hi := nw.ShardRange(0); lo != 0 || hi != nw.Width() {
		t.Fatalf("shard 0 range [%d,%d), want [0,%d)", lo, hi, nw.Width())
	}
	if got, err := nw.ConfigureShards(1); err != nil || got != 1 {
		t.Fatalf("ConfigureShards(1) = %d, %v", got, err)
	}
	if lo, hi := nw.ShardRange(0); lo != 0 || hi != nw.NumPEs() {
		t.Fatalf("restored shard range [%d,%d), want the whole fabric", lo, hi)
	}
	if _, err := nw.ConfigureShards(0); err == nil {
		t.Fatal("ConfigureShards(0) must error")
	}
}

// ResetEqualsFresh leaves an instance sharded, observed and saturated
// mid-flight, Resets it, and requires it to replay the case's schedule with
// the same delivered stream, counters and event log as a fresh instance.
func ResetEqualsFresh(t *testing.T, c Case) {
	used := c.New(t)
	sc := newSchedule(used.Width(), used.Height(), c.Seed, c.Cycles, c.Rate)
	fresh := reference(t, c.New(t), sc)

	if _, err := used.ConfigureShards(2); err != nil {
		t.Fatal(err)
	}
	used.SetObserver(&Recorder{})
	Saturate(used, 0, 40)
	if used.InFlight() == 0 {
		t.Fatal("saturated instance is empty; nothing to reset")
	}
	used.Reset()
	if used.InFlight() != 0 || *used.Counters() != (noc.Counters{}) {
		t.Fatalf("Reset left %d in flight, counters %+v", used.InFlight(), *used.Counters())
	}
	requireEqual(t, "after Reset", fresh, replay(t, used, sc, sequential, 1))
}

// SaturatedStepAllocs returns the steady-state allocations per Step of a
// warmed, saturated network stepped through Step with the given shard count.
func SaturatedStepAllocs(t *testing.T, nw Fabric, shards int) float64 {
	if _, err := nw.ConfigureShards(shards); err != nil {
		t.Fatal(err)
	}
	now := Saturate(nw, 0, 600)
	return testing.AllocsPerRun(200, func() { now = Saturate(nw, now, 1) })
}
