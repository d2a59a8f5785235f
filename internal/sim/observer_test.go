package sim_test

import (
	"fmt"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
	"fasttrack/internal/telemetry"
	"fasttrack/internal/traffic"
)

// countingObserver tallies every event kind.
type countingObserver struct {
	telemetry.Base
	injects, delivers                int64
	hops, expressHops                int64
	deflects, denied                 int64
	cycles                           int64
	lastCycle, lastInFlight          int64
	deliveredShort, deliveredExpress int64
}

func (c *countingObserver) OnInject(now int64, p *noc.Packet) { c.injects++ }
func (c *countingObserver) OnDeliver(now int64, p *noc.Packet) {
	c.delivers++
	c.deliveredShort += int64(p.ShortHops)
	c.deliveredExpress += int64(p.ExpressHops)
}
func (c *countingObserver) OnHop(now int64, router int, port noc.Port, kind telemetry.HopKind, p *noc.Packet) {
	switch kind {
	case telemetry.HopLocal:
		c.hops++
	case telemetry.HopExpress:
		c.expressHops++
	case telemetry.HopDeflect:
		c.deflects++
	case telemetry.HopDenied:
		c.denied++
	}
}
func (c *countingObserver) OnCycleEnd(now int64, inFlight int) {
	c.cycles++
	c.lastCycle, c.lastInFlight = now, int64(inFlight)
}

// TestObserverEventTotals holds the observer event stream to the network's
// own counters: every wire traversal, deflection, and express denial the
// counters record must arrive as exactly one callback.
func TestObserverEventTotals(t *testing.T) {
	cfgs := []core.Config{core.Hoplite(8), core.FastTrack(8, 2, 1)}
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("%s/sparse", cfg), func(t *testing.T) {
			net, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			obs := &countingObserver{}
			wl := traffic.NewSynthetic(8, 8, traffic.Random{}, 0.3, 100, 17)
			res, err := sim.Run(net, wl, sim.Options{Observer: obs})
			if err != nil {
				t.Fatal(err)
			}
			c := net.Counters()
			if obs.injects != res.Injected {
				t.Errorf("OnInject = %d, injected = %d", obs.injects, res.Injected)
			}
			if obs.delivers != res.Delivered {
				t.Errorf("OnDeliver = %d, delivered = %d", obs.delivers, res.Delivered)
			}
			if obs.hops != c.ShortTraversals {
				t.Errorf("OnHop(HopLocal) = %d, short traversals = %d", obs.hops, c.ShortTraversals)
			}
			if obs.expressHops != c.ExpressTraversals {
				t.Errorf("OnHop(HopExpress) = %d, express traversals = %d", obs.expressHops, c.ExpressTraversals)
			}
			var misroutes, denied int64
			for p := range c.MisroutesByInput {
				misroutes += c.MisroutesByInput[p]
				denied += c.ExpressDeniedByInput[p]
			}
			if obs.deflects != misroutes {
				t.Errorf("OnHop(HopDeflect) = %d, misroutes = %d", obs.deflects, misroutes)
			}
			if obs.denied != denied {
				t.Errorf("OnHop(HopDenied) = %d, denied = %d", obs.denied, denied)
			}
			if obs.cycles != res.Cycles {
				t.Errorf("OnCycleEnd fired %d times over %d cycles", obs.cycles, res.Cycles)
			}
			if obs.lastInFlight != 0 {
				t.Errorf("final in-flight = %d, want 0 (workload drains)", obs.lastInFlight)
			}
			// Per-packet hop counts seen at delivery must also sum to the
			// link totals: nothing is left in flight.
			if obs.deliveredShort != c.ShortTraversals || obs.deliveredExpress != c.ExpressTraversals {
				t.Errorf("per-packet hops (%d, %d) != link totals (%d, %d)",
					obs.deliveredShort, obs.deliveredExpress, c.ShortTraversals, c.ExpressTraversals)
			}
		})
	}
}

// TestObserverLinkStatsIntegration runs FastTrack at saturation with the
// LinkStats observer attached and requires express traffic on express-class
// links — the CSV's local/express split is the point of the report.
func TestObserverLinkStatsIntegration(t *testing.T) {
	net, err := core.FastTrack(8, 2, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	ls := telemetry.NewLinkStats(8, 8)
	wl := traffic.NewSynthetic(8, 8, traffic.Random{}, 1.0, 100, 17)
	res, err := sim.Run(net, wl, sim.Options{Observer: ls})
	if err != nil {
		t.Fatal(err)
	}
	c := net.Counters()
	local, express := ls.Totals()
	if local != c.ShortTraversals || express != c.ExpressTraversals {
		t.Fatalf("LinkStats totals (%d, %d) != counters (%d, %d)",
			local, express, c.ShortTraversals, c.ExpressTraversals)
	}
	if express == 0 {
		t.Fatal("saturated FastTrack recorded no express traversals")
	}
	if ls.Cycles() != res.Cycles {
		t.Fatalf("LinkStats cycles = %d, sim cycles = %d", ls.Cycles(), res.Cycles)
	}
}

// TestObserverMetricsIntegration checks the Metrics observer's cumulative
// totals agree with the run result and window boundaries tile the run.
func TestObserverMetricsIntegration(t *testing.T) {
	net, err := core.Hoplite(8).Build()
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewMetrics(64, 64)
	wl := traffic.NewSynthetic(8, 8, traffic.Random{}, 0.4, 200, 17)
	res, err := sim.Run(net, wl, sim.Options{Observer: m})
	if err != nil {
		t.Fatal(err)
	}
	m.Finish()
	pts := m.Points()
	if len(pts) == 0 {
		t.Fatal("no windows recorded")
	}
	last := pts[len(pts)-1]
	if last.TotalDelivered != res.Delivered || last.TotalInjected != res.Injected {
		t.Fatalf("metrics totals (%d, %d) != result (%d, %d)",
			last.TotalDelivered, last.TotalInjected, res.Delivered, res.Injected)
	}
	var delivered int64
	for i, wp := range pts {
		delivered += wp.Delivered
		if wp.Index != i {
			t.Fatalf("window %d has index %d", i, wp.Index)
		}
		if i > 0 && wp.Start != pts[i-1].End {
			t.Fatalf("window %d starts at %d, previous ended at %d", i, wp.Start, pts[i-1].End)
		}
	}
	if delivered != res.Delivered {
		t.Fatalf("window deliveries sum to %d, result has %d", delivered, res.Delivered)
	}
}
