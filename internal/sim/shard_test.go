package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"fasttrack/internal/buffered"
	"fasttrack/internal/core"
	"fasttrack/internal/noc"
	"fasttrack/internal/noctest"
	"fasttrack/internal/sim"
	"fasttrack/internal/telemetry"
	"fasttrack/internal/traffic"
)

// shardableNets is the slice of the golden matrix whose networks implement
// noc.ShardedNetwork (hoplite and every FastTrack variant; the buffered and
// multichannel fabrics are sequential-only).
func shardableNets() []goldenNet {
	return goldenNets()[:5]
}

// runGoldenSharded executes one golden cell with Options.Shards = shards.
func runGoldenSharded(t *testing.T, gn goldenNet, pat traffic.Pattern, rate float64, shards int) sim.Result {
	t.Helper()
	net, err := gn.build()
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(gn.w, gn.h, pat, rate, 120, 17)
	res, err := sim.Run(net, wl, sim.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenShardEquivalence holds the sharded engine to byte-identical
// sim.Results against the sequential sparse engine across every shardable
// network family, two patterns, both sweep extremes, and S ∈ {1, 2, 4},
// plus one saturated 64×64 Hoplite row at S = 8.
// This is the tentpole's determinism gate: sharding may only ever change
// wall-clock time, never a single Result bit.
func TestGoldenShardEquivalence(t *testing.T) {
	pats := []traffic.Pattern{traffic.Random{}, traffic.Transpose{}}
	rates := []float64{0.05, 1.0}
	for _, gn := range shardableNets() {
		for _, pat := range pats {
			for _, rate := range rates {
				seq := runGolden(t, gn, pat, rate, false)
				for _, s := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/%s/%.2f/shards=%d", gn.name, pat.Name(), rate, s)
					t.Run(name, func(t *testing.T) {
						shd := runGoldenSharded(t, gn, pat, rate, s)
						if !reflect.DeepEqual(seq, shd) {
							t.Errorf("sharded result diverges from sequential:\nseq: %+v\nshd: %+v", seq, shd)
						}
					})
				}
			}
		}
	}

	// One large grid at S=8: eight-row bands whose interior shards touch no
	// torus-wrap link, and delivery batches of hundreds of packets, all on
	// the parallel statistics dispatch — the 8×8 cells above have one- or
	// two-row bands and batches near the dispatch threshold. Quota 8 is
	// ~1,100 saturated cycles, a fraction of a second without -race.
	t.Run("hoplite-64x64/RANDOM/1.00/shards=8", func(t *testing.T) {
		run := func(shards int) sim.Result {
			net, err := core.Hoplite(64).Build()
			if err != nil {
				t.Fatal(err)
			}
			wl := traffic.NewSynthetic(64, 64, traffic.Random{}, 1.0, 8, 17)
			res, err := sim.Run(net, wl, sim.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if seq, shd := run(1), run(8); !reflect.DeepEqual(seq, shd) {
			t.Errorf("sharded result diverges from sequential:\nseq: %+v\nshd: %+v", seq, shd)
		}
	})
}

// TestShardedObserverNeutralAndExact checks the telemetry fan-in path: a
// sharded run with a no-op observer attached (which forces the buffered
// per-shard event route and the sequential inject-feedback path) must still
// reproduce the sequential Result bit for bit.
func TestShardedObserverNeutralAndExact(t *testing.T) {
	gn := goldenNets()[1] // ft-full
	seq := runGolden(t, gn, traffic.Random{}, 1.0, false)
	net, err := gn.build()
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(gn.w, gn.h, traffic.Random{}, 1.0, 120, 17)
	shd, err := sim.Run(net, wl, sim.Options{Shards: 4, Observer: telemetry.Base{}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, shd) {
		t.Errorf("sharded+observer result diverges from sequential:\nseq: %+v\nshd: %+v", seq, shd)
	}
}

// deliverRecorder extends the router-event recorder with deliveries, so the
// ordered-fan-in comparison also pins where deliveries interleave.
type deliverRecorder struct {
	noctest.Recorder
}

func (r *deliverRecorder) OnDeliver(now int64, p *noc.Packet) {
	r.Events = append(r.Events, noctest.Event{Kind: "deliver", Now: now, P: *p})
}

// TestShardedEventOrderMatchesSequential compares the router-level event
// stream (hops, deflections, express denials) plus deliveries between a
// sequential run and a sharded run: the per-shard buffers replayed through
// telemetry.ShardFanIn must reproduce the sequential emission order
// exactly. Engine-side injection events are excluded — their order follows
// the live-PE walk, which legitimately differs between workload shardings.
func TestShardedEventOrderMatchesSequential(t *testing.T) {
	gn := goldenNets()[1] // ft-full
	collect := func(shards int) []noctest.Event {
		net, err := gn.build()
		if err != nil {
			t.Fatal(err)
		}
		wl := traffic.NewSynthetic(gn.w, gn.h, traffic.Random{}, 1.0, 60, 17)
		rec := &deliverRecorder{}
		if _, err := sim.Run(net, wl, sim.Options{Shards: shards, Observer: rec}); err != nil {
			t.Fatal(err)
		}
		return rec.Events
	}
	seq := collect(1)
	shd := collect(4)
	if len(seq) == 0 {
		t.Fatal("sequential run emitted no events")
	}
	if !reflect.DeepEqual(seq, shd) {
		t.Fatalf("event streams diverged: %d sequential vs %d sharded events", len(seq), len(shd))
	}
}

// TestShardedRejectsBadConfigs pins the error surface: a non-sharded
// network, and the dense reference engine, both refuse Shards > 1.
func TestShardedRejectsBadConfigs(t *testing.T) {
	net, err := buffered.New(8, 8, buffered.Config{Depth: 4})
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(8, 8, traffic.Random{}, 0.1, 10, 1)
	if _, err := sim.Run(net, wl, sim.Options{Shards: 4}); err == nil {
		t.Error("buffered network with Shards=4 must error")
	}

	hop, err := core.Hoplite(8).Build()
	if err != nil {
		t.Fatal(err)
	}
	wl2 := traffic.NewSynthetic(8, 8, traffic.Random{}, 0.1, 10, 1)
	if _, err := sim.Run(hop, wl2, sim.Options{Shards: 4, Engine: sim.EngineDense}); err == nil {
		t.Error("EngineDense with Shards=4 must error")
	}
}

// TestConvergedNotTimedOut is the regression test for the result-flag bug:
// a run that exits through the convergence test consumed its final cycle in
// full, and the post-loop now >= MaxCycles comparison used to mislabel it
// as timed out whenever convergence landed on the budget boundary. Converged
// must imply !TimedOut.
func TestConvergedNotTimedOut(t *testing.T) {
	build := func() (sim.Result, error) {
		net, err := core.Hoplite(8).Build()
		if err != nil {
			t.Fatal(err)
		}
		wl := traffic.NewSynthetic(8, 8, traffic.Random{}, 1.0, 100000, 17)
		return sim.Run(net, wl, sim.Options{ConvergeWindow: 64, MaxCycles: 1 << 20})
	}
	first, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Converged {
		t.Fatal("saturated run with ConvergeWindow never converged; cannot stage the regression")
	}

	// Re-run with MaxCycles set exactly to the convergence cycle. The
	// window length divides MaxCycles, so the stationarity test fires on
	// the run's very last budgeted cycle — the boundary the old
	// "now >= MaxCycles ⇒ TimedOut" logic mislabeled.
	net, err := core.Hoplite(8).Build()
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(8, 8, traffic.Random{}, 1.0, 100000, 17)
	res, err := sim.Run(net, wl, sim.Options{ConvergeWindow: 64, MaxCycles: first.Cycles})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("run did not converge at cycle %d on replay", first.Cycles)
	}
	if res.TimedOut {
		t.Errorf("Converged run labeled TimedOut (cycles=%d, max=%d): the flags must be mutually exclusive", res.Cycles, first.Cycles)
	}
}
