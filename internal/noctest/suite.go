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
// mid-flight with a standing offer latched at every refused PE, Resets it, and
// requires first that idle Steps leave no trace (a latched offer whose mark
// survived would be refused or injected) and then that it replays the case's
// schedule with the same delivered stream, counters and event log as a fresh
// instance (one whose mark did not survive would be injected once traffic
// wakes its router).
func ResetEqualsFresh(t *testing.T, c Case) {
	used := c.New(t)
	sc := newSchedule(used.Width(), used.Height(), c.Seed, c.Cycles, c.Rate)
	fresh := reference(t, c.New(t), sc)

	if _, err := used.ConfigureShards(2); err != nil {
		t.Fatal(err)
	}
	used.SetObserver(&Recorder{})
	now := Saturate(used, 0, 40)
	w, n := used.Width(), used.NumPEs()
	for pe := 0; pe < n; pe++ {
		used.Hold(pe, noc.Packet{ID: -int64(pe) - 1, Src: noc.PECoord(pe, w), Dst: noc.PECoord((pe+1)%n, w), Gen: now})
	}
	used.Step(now)
	if used.InFlight() == 0 {
		t.Fatal("saturated instance is empty; nothing to reset")
	}
	used.Reset()
	rec := &Recorder{}
	used.SetObserver(rec)
	for i := int64(0); i < 3; i++ {
		used.Step(i)
		if used.InFlight() != 0 || len(used.Delivered()) != 0 || *used.Counters() != (noc.Counters{}) || len(rec.Events) != 0 {
			t.Fatalf("idle Step %d after Reset left a trace: %d in flight, %d delivered, counters %+v, %d events",
				i, used.InFlight(), len(used.Delivered()), *used.Counters(), len(rec.Events))
		}
	}
	requireEqual(t, "after Reset", fresh, replay(t, used, sc, sequential, 1))
}

// StandingOffers is the conformance gate for Kernel.Hold. A single Hold must
// be indistinguishable from the same packet re-Offered every cycle until it is
// accepted — same accept cycles, delivered stream, counters (InjectionStalls
// included) and event log — sequentially and over two shards, stepped on
// goroutines and through Step. An Offer over a standing offer must replace it,
// standing-ness included. (ResetEqualsFresh covers Reset dropping them.)
func StandingOffers(t *testing.T, c Case) {
	probe := c.New(t)
	sc := newSchedule(probe.Width(), probe.Height(), c.Seed, c.Cycles, c.Rate).styled(retry)
	want := reference(t, probe, sc)
	if want.counters.InjectionStalls == 0 {
		t.Fatal("no offer was ever refused; schedule too sparse to tell Hold from Offer")
	}
	requireEqual(t, "Hold", want, replay(t, c.New(t), sc.styled(hold), sequential, 1))
	requireEqual(t, "re-Offer, 2 shards", want, replay(t, c.New(t), sc, workers, 2))
	requireEqual(t, "Hold, 2 shards", want, replay(t, c.New(t), sc.styled(hold), workers, 2))
	requireEqual(t, "Hold, 2 Step-driven shards", want, replay(t, c.New(t), sc.styled(hold), stepDriven, 2))

	// Replacement: on a congested fabric every PE Holds a packet and then
	// Offers another over it. Only the second may ever enter, and only in
	// this cycle: the PEs refused now must not be retried.
	const held, oneCycle = int64(1) << 40, int64(1) << 41
	nw := c.New(t)
	w, n := nw.Width(), nw.NumPEs()
	now := Saturate(nw, 0, 40)
	for pe := 0; pe < n; pe++ {
		p := noc.Packet{ID: held | int64(pe), Src: noc.PECoord(pe, w), Dst: noc.PECoord((pe+n/2+1)%n, w), Gen: now}
		nw.Hold(pe, p)
		p.ID = oneCycle | int64(pe)
		nw.Offer(pe, p)
	}
	nw.Step(now)
	accepted := 0
	for pe := 0; pe < n; pe++ {
		if nw.Accepted(pe) {
			accepted++
		}
	}
	if accepted == 0 || accepted == n {
		t.Fatalf("%d of %d replacing offers accepted; need both outcomes", accepted, n)
	}
	entered := 0
	for ; ; now++ {
		for _, p := range nw.Delivered() {
			if p.ID&held != 0 {
				t.Fatalf("replaced standing offer %#x was injected", p.ID)
			}
			if p.ID&oneCycle != 0 {
				entered++
			}
		}
		if nw.InFlight() == 0 {
			break
		}
		nw.Step(now + 1)
	}
	if entered != accepted {
		t.Fatalf("%d replacing offers entered, %d were accepted in their one cycle", entered, accepted)
	}
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
