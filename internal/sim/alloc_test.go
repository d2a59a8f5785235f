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
// (engine, histograms, queue growth) is per run, not per packet, so the bound
// is far below one.
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
// §17): a warmed saturated run allocates its construction (engine, histogram,
// per-PE arrays: a few hundred objects whatever the quota) plus the source
// queues' slice doublings — at rate 1.0 every PE's FIFO grows to about its
// quota, ⌈log₂ quota⌉+1 appends-that-grow each — and nothing else. Once
// generation has finished and the queues only drain, a cycle allocates
// nothing at all.
func TestSaturatedRunMallocBudget(t *testing.T) {
	const quota, log2Quota = 500, 9
	// The counts are process-wide: as testing.AllocsPerRun does, keep the
	// collector and other Ps from allocating behind the run's back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, cfg := range []core.Config{core.Hoplite(8), core.FastTrack(8, 2, 1)} {
		t.Run(cfg.String(), func(t *testing.T) {
			var res sim.Result
			var probe *mallocProbe
			var before, after runtime.MemStats
			for pass := 0; pass < 2; pass++ { // the first pass warms the runtime
				net, err := cfg.Build()
				if err != nil {
					t.Fatal(err)
				}
				// Generation ends at cycle quota; the run drains for at least a
				// thousand cycles more, every queue still backed up at first.
				probe = &mallocProbe{
					SynthView: traffic.NewSynthetic(8, 8, traffic.Random{}, 1.0, quota, 17),
					from:      quota + 50, to: quota + 250,
				}
				runtime.ReadMemStats(&before)
				res, err = sim.Run(net, probe, sim.Options{})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
			}
			if res.Cycles <= probe.to {
				t.Fatalf("run ended at cycle %d, before the probe window closed", res.Cycles)
			}
			pes := uint64(cfg.N * cfg.N)
			if got, max := after.Mallocs-before.Mallocs, pes*(log2Quota+1)+600; got > max {
				t.Errorf("saturated run: %d mallocs, want <= %d (PEs*(ceil(log2 quota)+1) + 600)", got, max)
			}
			if probe.window != 0 {
				t.Errorf("%d mallocs in %d drain-only cycles, want 0", probe.window, probe.to-probe.from)
			}
		})
	}
}
