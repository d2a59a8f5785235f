package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/faults"
	"fasttrack/internal/hoplite"
	"fasttrack/internal/multichannel"
	"fasttrack/internal/noc"
	"fasttrack/internal/noctest"
	"fasttrack/internal/regulate"
	"fasttrack/internal/reliability"
	"fasttrack/internal/sim"
	"fasttrack/internal/trace"
	"fasttrack/internal/traffic"
)

// synthFace is everything a SynthView offers the engine except the StableHead
// marker. Embedding the interface (not the view) promotes only these methods,
// so a oneCycle workload is a SynthView the engine must drive with one-cycle
// offers.
type synthFace interface {
	sim.ShardableWorkload
	sim.EventWorkload
}

type oneCycle struct{ synthFace }

// engineRecorder records the engine-side packet events on top of the router
// events and deliveries: who was injected, who stalled, and each cycle's
// closing population, in emission order.
type engineRecorder struct {
	deliverRecorder
}

func (r *engineRecorder) OnInject(now int64, p *noc.Packet) {
	r.Events = append(r.Events, noctest.Event{Kind: "inject", Now: now, P: *p})
}

func (r *engineRecorder) OnInjectStall(now int64, pe int) {
	r.Events = append(r.Events, noctest.Event{Kind: "stall", Now: now, Router: pe})
}

func (r *engineRecorder) OnCycleEnd(now int64, inFlight int) {
	r.Events = append(r.Events, noctest.Event{Kind: "cycle", Now: now, Router: inFlight})
}

// TestGoldenStandingOffers holds the standing-offer path (Kernel.Hold, taken
// when the workload declares sim.StableHead) to the one-cycle path (the same
// workload with the marker hidden): identical Results per job, sharded and
// over a batch of four seeds, with the auditor on, and — observed — identical
// event streams, so OnInjectStall still fires once per refused PE per cycle in
// live-list order.
func TestGoldenStandingOffers(t *testing.T) {
	if _, ok := sim.Workload(oneCycle{}).(sim.StableHead); ok {
		t.Fatal("oneCycle exposes the StableHead marker; it would not force the one-cycle path")
	}
	cfgs := []core.Config{
		core.Hoplite(8),
		core.FastTrack(8, 2, 1),
		core.FastTrack(8, 4, 2).WithVariant(core.VariantInject),
	}
	const batch = 4
	type outcome struct {
		res    []sim.Result
		events [][]noctest.Event
	}
	// run drives one matrix cell; driver is "job" (one run), "shards" (one
	// run on two shards) or "batch" (four jobs of consecutive seeds, run one
	// by one as a sweep runs them); check is "plain", "audit" or "observed".
	run := func(t *testing.T, cfg core.Config, pat traffic.Pattern, rate float64, driver, check string, standing bool) outcome {
		t.Helper()
		jobs := 1
		if driver == "batch" {
			jobs = batch
		}
		var out outcome
		for i := 0; i < jobs; i++ {
			net, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			gen := traffic.NewSynthetic(cfg.N, cfg.N, pat, rate, 32, 17+uint64(i))
			var wl sim.Workload = gen
			if !standing {
				wl = oneCycle{gen}
			}
			opts := sim.Options{CheckConservation: check == "audit"}
			var rec *engineRecorder
			if check == "observed" {
				rec = &engineRecorder{}
				opts.Observer = rec
			}
			if driver == "shards" {
				opts.Shards = 2
			}
			res, err := sim.Run(net, wl, opts)
			if err != nil {
				t.Fatal(err)
			}
			out.res = append(out.res, res)
			if rec != nil {
				out.events = append(out.events, rec.Events)
			}
		}
		return out
	}
	for _, cfg := range cfgs {
		for _, pat := range []traffic.Pattern{traffic.Random{}, traffic.Transpose{}} {
			for _, rate := range []float64{0.05, 1.0} {
				for _, driver := range []string{"job", "shards", "batch"} {
					for _, check := range []string{"plain", "audit", "observed"} {
						name := fmt.Sprintf("%s/%s/%.2f/%s/%s", cfg, pat.Name(), rate, driver, check)
						t.Run(name, func(t *testing.T) {
							want := run(t, cfg, pat, rate, driver, check, false)
							got := run(t, cfg, pat, rate, driver, check, true)
							if rate == 1.0 && want.res[0].Counters.InjectionStalls == 0 {
								t.Fatal("saturated run never stalled; nothing distinguishes the paths")
							}
							if !reflect.DeepEqual(want.res, got.res) {
								t.Errorf("standing offers changed the result:\none-cycle: %+v\nstanding:  %+v", want.res, got.res)
							}
							if !reflect.DeepEqual(want.events, got.events) {
								t.Errorf("standing offers changed the event stream")
							}
						})
					}
				}
			}
		}
	}
}

// TestStandingOfferOptOuts pins who must stay on one-cycle offers. The
// workload decorators reorder, delay or withdraw what their inner workload has
// pending, and a trace head can be displaced (trace's
// TestStreamHeadDisplacedAfterRefusal), so none may carry the StableHead
// marker; the network wrappers gate or rewrite offers per cycle, so neither
// may expose the kernel's Hold. All five keep their inner value in a named
// field — this fails the day an embed starts inheriting the method silently.
func TestStandingOfferOptOuts(t *testing.T) {
	for _, wl := range []any{(*regulate.Workload)(nil), (*reliability.Workload)(nil), (*trace.Stream)(nil)} {
		if _, ok := wl.(sim.StableHead); ok {
			t.Errorf("%T declares sim.StableHead", wl)
		}
	}
	type holder interface{ Hold(int, noc.Packet) }
	for _, net := range []any{(*faults.Network)(nil), (*multichannel.Network)(nil)} {
		if _, ok := net.(holder); ok {
			t.Errorf("%T exposes Hold", net)
		}
	}
	// The positive side, so the negatives cannot pass by a renamed method.
	if _, ok := any((*traffic.SynthView)(nil)).(sim.StableHead); !ok {
		t.Error("*traffic.SynthView no longer declares sim.StableHead")
	}
	if _, ok := any((*hoplite.Network)(nil)).(holder); !ok {
		t.Error("*hoplite.Network no longer exposes Hold")
	}
}
