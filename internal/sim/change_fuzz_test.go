package sim_test

import (
	"reflect"
	"testing"

	"fasttrack/internal/buffered"
	"fasttrack/internal/core"
	"fasttrack/internal/faults"
	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
	"fasttrack/internal/traffic"
)

// changeFamilies are the networks FuzzChangeReport draws from, each built on
// an n×n torus. FastTrack needs 2D ≤ n and R | n, and Inject D | n, so some
// (family, n) pairs do not exist; the fuzzer skips them.
var changeFamilies = []struct {
	name  string
	build func(n int, seed uint64) (noc.Network, error)
}{
	{"hoplite", func(n int, _ uint64) (noc.Network, error) { return core.Hoplite(n).Build() }},
	{"ft-full", func(n int, _ uint64) (noc.Network, error) { return core.FastTrack(n, 2, 1).Build() }},
	{"ft-inject", func(n int, _ uint64) (noc.Network, error) {
		return core.FastTrack(n, 2, 1).WithVariant(core.VariantInject).Build()
	}},
	{"ft-depop", func(n int, _ uint64) (noc.Network, error) { return core.FastTrack(n, 2, 2).Build() }},
	{"ft-pipelined", func(n int, _ uint64) (noc.Network, error) {
		return core.FastTrack(n, 2, 1).WithPipeline(1).Build()
	}},
	{"hoplite-2x", func(n int, _ uint64) (noc.Network, error) { return core.MultiChannel(n, 2).Build() }},
	{"faulty-ft", func(n int, seed uint64) (noc.Network, error) {
		inner, err := core.FastTrack(n, 2, 1).Build()
		if err != nil {
			return nil, err
		}
		return faults.Wrap(inner, faults.Config{
			Seed: seed, DropRate: 0.02, MisrouteRate: 0.01,
			Stuck: []faults.Window{{PE: 1, From: 5, Until: 40}},
		})
	}},
	{"ft-inject-d4-depop", func(n int, _ uint64) (noc.Network, error) {
		return core.FastTrack(n, 4, 2).WithVariant(core.VariantInject).Build()
	}},
	{"buffered", func(n int, _ uint64) (noc.Network, error) {
		return buffered.New(n, n, buffered.Config{Depth: 2})
	}},
}

// changePatterns are the synthetic patterns FuzzChangeReport draws from.
var changePatterns = []traffic.Pattern{
	traffic.Random{}, traffic.Transpose{}, traffic.Local{}, traffic.BitComplement{},
	traffic.Tornado{}, traffic.Hotspot{Hot: noc.Coord{X: 1, Y: 1}},
}

// FuzzChangeReport holds the change-driven engine path — only the PEs a
// workload's sim.ChangeReporter names are presented, standing offers stay
// latched in the network, and inject feedback walks the network's accepted
// list — to the same synthetic workload with its change report hidden, which
// Run re-presents as every live PE every cycle: identical Results, bit for
// bit. The seed corpus is the golden_test.go and standing_test.go matrix.
// Encoding: n = 2 + n%7, rate = (1 + rate%100)/100, quota = 1 + quota%128.
func FuzzChangeReport(f *testing.F) {
	// golden_test.go: every family at 8×8, quota 120, seed 17.
	for fam := uint8(0); fam < 6; fam++ {
		for _, pat := range []uint8{0, 1} {
			for _, rate := range []uint8{4, 99} {
				f.Add(fam, uint8(6), pat, rate, uint8(119), uint64(17))
			}
		}
	}
	// standing_test.go: Hoplite, FT(8,2,1) and FT(8,4,2)-inject, quota 32.
	for _, fam := range []uint8{0, 1, 7} {
		for _, pat := range []uint8{0, 1} {
			for _, rate := range []uint8{4, 99} {
				f.Add(fam, uint8(6), pat, rate, uint8(31), uint64(17))
			}
		}
	}
	f.Add(uint8(6), uint8(6), uint8(0), uint8(99), uint8(63), uint64(11)) // faults
	f.Add(uint8(8), uint8(6), uint8(1), uint8(99), uint8(63), uint64(5))  // buffered
	f.Fuzz(func(t *testing.T, family, n, pattern, rate, quota uint8, seed uint64) {
		fam := changeFamilies[int(family)%len(changeFamilies)]
		w := 2 + int(n)%7
		pat := changePatterns[int(pattern)%len(changePatterns)]
		if traffic.ValidateDims(pat, w, w) != nil {
			t.Skip()
		}
		r := float64(1+int(rate)%100) / 100
		q := 1 + int(quota)%128
		run := func(hide bool) sim.Result {
			net, err := fam.build(w, seed)
			if err != nil {
				t.Skip() // no such configuration at this size
			}
			var wl sim.Workload = traffic.NewSynthetic(w, w, pat, r, q, seed)
			if hide {
				wl = oneCycle{wl.(synthFace)}
			}
			res, err := sim.Run(net, wl, sim.Options{})
			if err != nil {
				t.Fatalf("%s %dx%d %s rate %.2f quota %d: %v", fam.name, w, w, pat.Name(), r, q, err)
			}
			return res
		}
		want, got := run(true), run(false)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s %dx%d %s rate %.2f quota %d seed %d: change-driven run diverges\nhidden: %+v\nchanges: %+v",
				fam.name, w, w, pat.Name(), r, q, seed, want, got)
		}
	})
}
