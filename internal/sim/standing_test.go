package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fasttrack/internal/buffered"
	"fasttrack/internal/core"
	"fasttrack/internal/fasttrack"
	"fasttrack/internal/faults"
	"fasttrack/internal/hoplite"
	"fasttrack/internal/multichannel"
	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
	"fasttrack/internal/telemetry"
	"fasttrack/internal/trace"
	"fasttrack/internal/traffic"
)

// synthFace is everything a SynthView offers the engine except its change
// report. Embedding the interface (not the view) promotes only these methods,
// so a oneCycle workload is a SynthView the engine must re-present as every
// live PE every cycle.
type synthFace interface {
	sim.Workload
	sim.ActiveSet
	sim.EventWorkload
}

type oneCycle struct{ synthFace }

// event is one recorded telemetry event, router- or engine-level.
type event struct {
	Kind   string
	Now    int64
	Router int
	Port   noc.Port
	P      noc.Packet
}

// engineRecorder records the router events (hops, deflections, express
// denials) and the engine-side packet events (who was injected, who was
// delivered, and each cycle's closing population), in emission order.
type engineRecorder struct {
	telemetry.Base
	Events []event
}

func (r *engineRecorder) add(e event) { r.Events = append(r.Events, e) }

// hopKindNames are the recorded kind strings, indexed by telemetry.HopKind.
var hopKindNames = [...]string{"hop", "exhop", "deflect", "denied"}

func (r *engineRecorder) OnHop(now int64, router int, port noc.Port, kind telemetry.HopKind, p *noc.Packet) {
	r.add(event{Kind: hopKindNames[kind], Now: now, Router: router, Port: port, P: *p})
}

func (r *engineRecorder) OnDeliver(now int64, p *noc.Packet) {
	r.add(event{Kind: "deliver", Now: now, P: *p})
}

func (r *engineRecorder) OnInject(now int64, p *noc.Packet) {
	r.add(event{Kind: "inject", Now: now, P: *p})
}

func (r *engineRecorder) OnCycleEnd(now int64, inFlight int) {
	r.add(event{Kind: "cycle", Now: now, Router: inFlight})
}

// TestGoldenStandingOffers holds the change-driven path (only the PEs the
// workload reports as sim.ChangeReporter are presented) to the one-cycle
// path (the same workload with the report hidden): identical Results per job
// and over a batch of four seeds, with the auditor on, and — observed —
// identical event streams.
func TestGoldenStandingOffers(t *testing.T) {
	if _, ok := sim.Workload(oneCycle{}).(sim.ChangeReporter); ok {
		t.Fatal("oneCycle exposes the change report; it would not force the one-cycle path")
	}
	cfgs := []core.Config{
		core.Hoplite(8),
		core.FastTrack(8, 2, 1),
		core.FastTrack(8, 4, 2).WithVariant(core.VariantInject),
	}
	const batch = 4
	type outcome struct {
		res    []sim.Result
		events [][]event
	}
	// run drives one matrix cell; driver is "job" (one run) or "batch" (four
	// jobs of consecutive seeds, run one by one as a sweep runs them); check
	// is "plain", "audit" or "observed".
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
				for _, driver := range []string{"job", "batch"} {
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

// Every production network keeps standing offers, and both production
// workloads report their changes: the engine's one offer path relies on
// nothing else (sim.Run rejects a network without noc.Standing; the test
// oracles reach it through latch).
var (
	_ noc.Standing = (*hoplite.Network)(nil)
	_ noc.Standing = (*fasttrack.Network)(nil)
	_ noc.Standing = (*multichannel.Network)(nil)
	_ noc.Standing = (*faults.Network)(nil)
	_ noc.Standing = (*buffered.Network)(nil)

	_ sim.ChangeReporter = (*traffic.SynthView)(nil)
	_ sim.ChangeReporter = (*trace.Stream)(nil)
)

// oneCycleNet hides a network's standing-offer methods, leaving a plain
// one-cycle noc.Network.
type oneCycleNet struct{ noc.Network }

// TestRunRejectsOneCycleNetwork: sim.Run refuses a network without
// noc.Standing, naming its type, instead of adapting it silently; only the
// tests' latch adapts one (and then it runs).
func TestRunRejectsOneCycleNetwork(t *testing.T) {
	inner, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(4, 4, traffic.Random{}, 0.3, 20, 1)
	_, err = sim.Run(oneCycleNet{inner}, wl, sim.Options{})
	if err == nil || !strings.Contains(err.Error(), "sim_test.oneCycleNet") ||
		!strings.Contains(err.Error(), "noc.Standing") {
		t.Fatalf("Run(oneCycleNet) err = %v, want an error naming sim_test.oneCycleNet and noc.Standing", err)
	}
	res, err := sim.Run(latch(oneCycleNet{inner}), wl, sim.Options{})
	if err != nil || res.Delivered != 16*20 {
		t.Fatalf("Run(latch(oneCycleNet)) = %d delivered, %v; want 320, nil", res.Delivered, err)
	}
}
