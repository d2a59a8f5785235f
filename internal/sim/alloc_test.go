package sim_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/sim"
	"fasttrack/internal/telemetry"
	"fasttrack/internal/traffic"
)

// TestDeliveryDoesNotAllocate bounds heap allocations per delivered packet on
// saturated runs. The delivery loop hands *noc.Packet to the statistics, the
// observer and the error path; taking that address from a by-value loop
// variable makes every delivered packet escape (one malloc each), whether or
// not an observer is attached. Everything a run legitimately allocates
// (engine, histograms, per-PE arrays) is per run, not per packet, so the
// bound is far below one.
func TestDeliveryDoesNotAllocate(t *testing.T) {
	const maxPerPacket = 0.1
	for _, cfg := range []core.Config{core.Hoplite(8), core.FastTrack(8, 2, 1)} {
		for _, tc := range []struct {
			name string
			obs  telemetry.Observer
		}{{"bare", nil}, {"observed", telemetry.Base{}}} {
			t.Run(cfg.String()+"/"+tc.name, func(t *testing.T) {
				net, err := cfg.Build()
				if err != nil {
					t.Fatal(err)
				}
				wl := traffic.NewSynthetic(8, 8, traffic.Random{}, 1.0, 500, 17)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := sim.Run(net, wl, sim.Options{Observer: tc.obs})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				perPacket := float64(after.Mallocs-before.Mallocs) / float64(res.Delivered)
				if perPacket >= maxPerPacket {
					t.Errorf("%.3f mallocs per delivered packet (%d packets), want < %.1f",
						perPacket, res.Delivered, maxPerPacket)
				}
			})
		}
	}
}

// mallocProbe is a SynthView (every optional interface, the change report
// included, is promoted from the embedded pointer) that samples the process's
// malloc count on entry to two chosen cycles; after the second, window is the
// number of mallocs between them.
type mallocProbe struct {
	*traffic.SynthView
	from, to int64
	window   uint64
}

func (p *mallocProbe) Tick(now int64) {
	if now == p.from || now == p.to {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		p.window = ms.Mallocs - p.window
	}
	p.SynthView.Tick(now)
}

// TestSaturatedRunMallocBudget closes the hot loop's malloc account (DESIGN
// §17): a warmed saturated run allocates its construction (engine,
// histogram, per-PE arrays: under a hundred objects) and nothing else. The
// source queues are implicit — a PE stores only its head packet however far
// it is backed up — so at rate 1.0, where every queue grows to about its
// quota, ten times the quota costs no more than a few mallocs more. Once
// generation has finished and the queues only drain, a cycle allocates
// nothing at all.
func TestSaturatedRunMallocBudget(t *testing.T) {
	const small, large, construction, growth = 500, 5000, 100, 8
	// The counts are process-wide: as testing.AllocsPerRun does, keep the
	// collector and other Ps from allocating behind the run's back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, cfg := range []core.Config{core.Hoplite(8), core.FastTrack(8, 2, 1)} {
		t.Run(cfg.String(), func(t *testing.T) {
			// run returns a run's mallocs and those of its probe window.
			run := func(quota int) (total, window uint64) {
				net, err := cfg.Build()
				if err != nil {
					t.Fatal(err)
				}
				// Generation ends at cycle quota; the run drains for at least a
				// thousand cycles more, every queue still backed up at first.
				probe := &mallocProbe{
					SynthView: traffic.NewSynthetic(8, 8, traffic.Random{}, 1.0, quota, 17),
					from:      int64(quota) + 50, to: int64(quota) + 250,
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := sim.Run(net, probe, sim.Options{})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if res.Cycles <= probe.to {
					t.Fatalf("quota %d: run ended at cycle %d, before the probe window closed", quota, res.Cycles)
				}
				return after.Mallocs - before.Mallocs, probe.window
			}
			run(small) // warm the runtime
			mSmall, wSmall := run(small)
			mSmall0, wSmall0 := run(large)
			t.Logf("%d mallocs at quota %d, %d at quota %d", mSmall, small, mSmall0, large)
			if mSmall > construction {
				t.Errorf("saturated run: %d mallocs at quota %d, want <= %d", mSmall, small, construction)
			}
			if mSmall0 > mSmall+growth {
				t.Errorf("saturated run: %d mallocs at quota %d but %d at quota %d, want within %d", mSmall, small, mSmall0, large, growth)
			}
			if wSmall != 0 || wSmall0 != 0 {
				t.Errorf("%d and %d mallocs in drain-only windows at quotas %d and %d, want 0", wSmall, wSmall0, small, large)
			}
		})
	}
}
