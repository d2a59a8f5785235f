package sim_test

import (
	"runtime"
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
