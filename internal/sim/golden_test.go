package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"fasttrack/internal/buffered"
	"fasttrack/internal/core"
	"fasttrack/internal/faults"
	"fasttrack/internal/hoplite"
	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
	"fasttrack/internal/telemetry"
	"fasttrack/internal/traffic"
)

// goldenNet names one network construction in the equivalence matrix and
// the reference it is held to.
type goldenNet struct {
	name  string
	build func() (noc.Network, error)
	// ref builds the reference network: the paper oracle (oracle_test.go)
	// for the bufferless families. The buffered mesh is an extension the
	// paper does not specify (DESIGN §5c ext-buffered), so it is held to
	// its own dense stepping path instead.
	ref  func() (noc.Network, error)
	w, h int
}

func goldenNets() []goldenNet {
	cfg := func(name string, c core.Config) goldenNet {
		return goldenNet{name, c.Build, oracleOf(c), c.N, c.N}
	}
	return []goldenNet{
		cfg("hoplite-8x8", core.Hoplite(8)),
		cfg("ft-full", core.FastTrack(8, 2, 1)),
		cfg("ft-inject", core.FastTrack(8, 2, 1).WithVariant(core.VariantInject)),
		cfg("ft-depop", core.FastTrack(8, 2, 2)),
		cfg("ft-pipelined", core.FastTrack(8, 2, 1).WithPipeline(1)),
		cfg("multichannel-2x", core.MultiChannel(8, 2)),
		{"buffered-8x8", func() (noc.Network, error) {
			return buffered.New(8, 8, buffered.Config{Depth: 4})
		}, func() (noc.Network, error) {
			nw, err := buffered.New(8, 8, buffered.Config{Depth: 4})
			if err == nil {
				nw.SetDense(true)
			}
			return nw, err
		}, 8, 8},
	}
}

// oracleOf returns a builder for the paper oracle configured as c.
func oracleOf(c core.Config) func() (noc.Network, error) {
	s := oracleSpec{W: c.N, H: c.N}
	switch c.Kind {
	case core.KindFastTrack:
		s.D, s.R, s.Stages = c.D, c.R, c.ExpressPipeline
		s.Inject = c.Variant == core.VariantInject
	case core.KindMultiChannel:
		s.Channels = c.Channels
	}
	return func() (noc.Network, error) { return newOracle(s), nil }
}

// fullScan hides every optional interface of the workload it wraps
// (sim.ActiveSet, sim.ChangeReporter, sim.EventWorkload), so Run polls Pending
// on every PE every cycle, offers one cycle at a time and never skips an
// idle cycle: the engine's reference path.
type fullScan struct{ sim.Workload }

// runGolden executes one (network, pattern, rate) cell. reference runs the
// golden net's reference network under the engine's reference path
// (fullScan).
func runGolden(t *testing.T, gn goldenNet, pat traffic.Pattern, rate float64, reference bool) sim.Result {
	t.Helper()
	return runGoldenObserved(t, gn, pat, rate, reference, nil)
}

// runGoldenObserved is runGolden with a telemetry observer attached.
func runGoldenObserved(t *testing.T, gn goldenNet, pat traffic.Pattern, rate float64, reference bool, obs telemetry.Observer) sim.Result {
	t.Helper()
	build, wl := gn.build, sim.Workload(traffic.NewSynthetic(gn.w, gn.h, pat, rate, 120, 17))
	if reference {
		build, wl = gn.ref, fullScan{wl}
	}
	net, err := build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(net, wl, sim.Options{Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenObserverNeutral holds a run with a no-op telemetry observer
// attached to bit-identical sim.Results: the hooks may watch the simulation
// but never steer it. The ref=false rows compare it with the bare run, the
// ref=true rows with the paper oracle. Covers hoplite and FastTrack on RANDOM
// and TRANSPOSE at both sweep extremes.
func TestGoldenObserverNeutral(t *testing.T) {
	nets := []goldenNet{goldenNets()[0], goldenNets()[1]} // hoplite-8x8, ft-full
	pats := []traffic.Pattern{traffic.Random{}, traffic.Transpose{}}
	for _, gn := range nets {
		for _, pat := range pats {
			for _, rate := range []float64{0.05, 1.0} {
				for _, reference := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%.2f/ref=%v", gn.name, pat.Name(), rate, reference)
					t.Run(name, func(t *testing.T) {
						want := runGolden(t, gn, pat, rate, reference)
						obs := runGoldenObserved(t, gn, pat, rate, false, telemetry.Base{})
						if !reflect.DeepEqual(want, obs) {
							t.Errorf("no-op observer changed the result:\nwant:     %+v\nobserved: %+v", want, obs)
						}
					})
				}
			}
		}
	}
}

// TestGoldenEquivalence holds the production path (sparse router stepping,
// ActiveSet PE iteration, standing offers) to byte-identical sim.Results
// against the paper oracle under a full PE scan, across every network
// family, two patterns, and both sweep extremes. Bit-exactness — including
// the float latency accumulators, which are sensitive to delivery order —
// is the contract: it checks the routing policy itself, not only the
// kernel's bookkeeping.
func TestGoldenEquivalence(t *testing.T) {
	pats := []traffic.Pattern{traffic.Random{}, traffic.Transpose{}}
	rates := []float64{0.05, 1.0}
	for _, gn := range goldenNets() {
		for _, pat := range pats {
			for _, rate := range rates {
				name := fmt.Sprintf("%s/%s/%.2f", gn.name, pat.Name(), rate)
				t.Run(name, func(t *testing.T) {
					ref := runGolden(t, gn, pat, rate, true)
					opt := runGolden(t, gn, pat, rate, false)
					if !reflect.DeepEqual(ref, opt) {
						t.Errorf("optimized result diverges from reference:\nref: %+v\nopt: %+v", ref, opt)
					}
				})
			}
		}
	}
}

// TestGoldenEquivalenceNonPow2 covers a 6×6 torus, where router indices do
// not align with the 64-bit occupancy words the sparse path iterates.
func TestGoldenEquivalenceNonPow2(t *testing.T) {
	gn := goldenNet{"hoplite-6x6", func() (noc.Network, error) { return hoplite.New(6, 6) },
		func() (noc.Network, error) { return newOracle(oracleSpec{W: 6, H: 6}), nil }, 6, 6}
	for _, rate := range []float64{0.05, 1.0} {
		ref := runGolden(t, gn, traffic.Random{}, rate, true)
		opt := runGolden(t, gn, traffic.Random{}, rate, false)
		if !reflect.DeepEqual(ref, opt) {
			t.Errorf("rate %.2f: optimized result diverges from reference", rate)
		}
	}
}

// TestGoldenEquivalenceExpressSpans covers the FastTrack spans goldenNets
// leaves out (every cell there has D = 2 on 8×8). With D ∤ N — FT(8,3,1),
// plain and pipelined — a packet deflected around a ring comes back
// misaligned, so express pop-off and the "aligned after an east deflection"
// test differ from plain alignment; FT(8,4,2) runs the Inject router at
// D = 4 with depopulated routers. Kept out of goldenNets so that
// TestResultDigest's pin does not move.
func TestGoldenEquivalenceExpressSpans(t *testing.T) {
	cfgs := []struct {
		name string
		c    core.Config
	}{
		{"ft-d3", core.FastTrack(8, 3, 1)},
		{"ft-d3-pipelined", core.FastTrack(8, 3, 1).WithPipeline(1)},
		{"ft-inject-d4-depop", core.FastTrack(8, 4, 2).WithVariant(core.VariantInject)},
	}
	for _, nc := range cfgs {
		gn := goldenNet{nc.name, nc.c.Build, oracleOf(nc.c), nc.c.N, nc.c.N}
		for _, pat := range []traffic.Pattern{traffic.Random{}, traffic.Transpose{}} {
			for _, rate := range []float64{0.05, 1.0} {
				t.Run(fmt.Sprintf("%s/%s/%.2f", gn.name, pat.Name(), rate), func(t *testing.T) {
					ref := runGolden(t, gn, pat, rate, true)
					opt := runGolden(t, gn, pat, rate, false)
					if !reflect.DeepEqual(ref, opt) {
						t.Errorf("optimized result diverges from reference:\nref: %+v\nopt: %+v", ref, opt)
					}
				})
			}
		}
	}
}

// TestCrossFamilyDeterminism runs every family twice with the same seed and
// config on the optimized path and requires identical sim.Results — the
// occupancy bookkeeping must be a pure function of the simulation history.
// The faults wrapper rides along because its packet-indexed fault schedule
// must replay identically over the sparse-stepped inner network. make
// verify executes this under the race detector.
func TestCrossFamilyDeterminism(t *testing.T) {
	nets := goldenNets()
	nets = append(nets, goldenNet{"faulty-hoplite", func() (noc.Network, error) {
		inner, err := hoplite.New(8, 8)
		if err != nil {
			return nil, err
		}
		return faults.Wrap(inner, faults.Config{
			Seed: 11, DropRate: 0.02,
			Stuck: []faults.Window{{PE: 3, From: 50, Until: 200}},
		})
	}, nil, 8, 8})
	for _, gn := range nets {
		t.Run(gn.name, func(t *testing.T) {
			a := runGolden(t, gn, traffic.Random{}, 0.2, false)
			b := runGolden(t, gn, traffic.Random{}, 0.2, false)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two identically seeded runs diverged:\nfirst:  %+v\nsecond: %+v", a, b)
			}
		})
	}
}

// idleGaps is a no-op observer (it watches, never steers) that locates the
// longest stretch of cycles ending with an empty network.
type idleGaps struct {
	telemetry.Base
	run, longest, longestEnd int64
}

func (g *idleGaps) OnCycleEnd(now int64, inFlight int) {
	if inFlight != 0 {
		g.run = 0
		return
	}
	if g.run++; g.run > g.longest {
		g.longest, g.longestEnd = g.run, now
	}
}

// TestGoldenIdleSkip checks the idle fast-forward at the level it lives: a
// per-job Run of an EventWorkload at a rate that actually idles must be
// bit-identical to the two paths that never skip — (a) the reference network
// under a full PE scan, (b) the same run observed — on every network family,
// since Run arms the skip for all of them (multichannel's
// rotating service order is the one piece of network state an idle Step could
// have advanced). The edge rows aim the cycle budget and the stall limit at
// the longest idle stretch of the run, located by the observed pass.
func TestGoldenIdleSkip(t *testing.T) {
	const rate, quota = 0.002, 16
	run := func(t *testing.T, gn goldenNet, reference bool, opts sim.Options) (sim.Result, error) {
		t.Helper()
		build, wl := gn.build, sim.Workload(traffic.NewSynthetic(gn.w, gn.h, traffic.Random{}, rate, quota, 17))
		if reference {
			build, wl = gn.ref, fullScan{wl}
		}
		net, err := build()
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run(net, wl, opts)
	}
	rows := []struct {
		name string
		opts func(g *idleGaps) sim.Options
		want func(t *testing.T, res sim.Result, opts sim.Options)
	}{
		{"drain", func(*idleGaps) sim.Options { return sim.Options{} },
			func(t *testing.T, res sim.Result, _ sim.Options) {
				if res.TimedOut || res.Delivered == 0 || res.Delivered != res.Injected {
					t.Errorf("run did not drain: %+v", res)
				}
			}},
		{"maxcycles-inside-idle-stretch", func(g *idleGaps) sim.Options {
			return sim.Options{MaxCycles: g.longestEnd - g.longest/2}
		}, func(t *testing.T, res sim.Result, opts sim.Options) {
			if !res.TimedOut || res.Cycles != opts.MaxCycles {
				t.Errorf("TimedOut=%v Cycles=%d, want timeout at exactly %d", res.TimedOut, res.Cycles, opts.MaxCycles)
			}
		}},
		{"stall-limit-shorter-than-idle-gap", func(g *idleGaps) sim.Options {
			return sim.Options{StallLimit: g.longest - 1}
		}, func(t *testing.T, res sim.Result, _ sim.Options) {
			if res.TimedOut || res.Delivered != res.Injected {
				t.Errorf("run did not drain: %+v", res)
			}
		}},
	}
	for _, gn := range goldenNets() {
		var gaps idleGaps
		if _, err := run(t, gn, false, sim.Options{Observer: &gaps}); err != nil {
			t.Fatal(err)
		}
		if gaps.longest < 32 {
			t.Fatalf("%s: longest idle stretch is %d cycles; the rate does not idle enough to test the skip", gn.name, gaps.longest)
		}
		for _, row := range rows {
			t.Run(gn.name+"/"+row.name, func(t *testing.T) {
				opts := row.opts(&gaps)
				skip, err := run(t, gn, false, opts)
				if err != nil {
					t.Fatalf("skip-armed run: %v", err)
				}
				row.want(t, skip, opts)
				for _, ref := range []struct {
					name      string
					reference bool
					opts      sim.Options
				}{
					{"oracle", true, sim.Options{}},
					{"observed", false, sim.Options{Observer: telemetry.Base{}}},
				} {
					ref.opts.MaxCycles, ref.opts.StallLimit = opts.MaxCycles, opts.StallLimit
					got, err := run(t, gn, ref.reference, ref.opts)
					if err != nil {
						t.Fatalf("%s: %v", ref.name, err)
					}
					if !reflect.DeepEqual(skip, got) {
						t.Errorf("skip-armed Run diverges from %s:\nskip: %+v\n%s: %+v", ref.name, skip, ref.name, got)
					}
				}
			})
		}
	}
}
