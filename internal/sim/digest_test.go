package sim_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"testing"

	"fasttrack/internal/sim"
	"fasttrack/internal/trace"
	"fasttrack/internal/traffic"
	"fasttrack/internal/xrand"
)

// The Result digest of the matrix below, pinned next to the engine version it
// was measured under. A change that moves any Result bit fails
// TestResultDigest until sim.Version and this pin move together, so the cache
// (which keys on sim.Version) can never serve a stale result.
const (
	pinnedVersion = "ft-sim/4"
	pinnedDigest  = "688256038d19e01f5ea5f4db53798c704822e3ffaf3f4d1ea778d09d05a3a46e"
)

// digestTrace is a fixed 64-PE replay with dependency chains and compute gaps,
// built here from a seeded stream so the pin depends on no trace generator.
func digestTrace(t *testing.T) *trace.Trace {
	t.Helper()
	rng := xrand.New(2018)
	b := trace.NewBuilder("digest", 64)
	for i := 0; i < 400; i++ {
		var deps []int32
		if i > 0 && rng.Bool(0.6) {
			deps = append(deps, int32(rng.Intn(i)))
		}
		b.Add(rng.Intn(64), rng.Intn(64), int32(rng.Intn(40)), deps...)
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// writeResult feeds every Result field to h in a fixed order; floats and the
// statistics accumulators go in as their exact bits.
func writeResult(t *testing.T, h hash.Hash, res sim.Result) {
	t.Helper()
	fmt.Fprintf(h, "%d %d %d %x %x %d %d %d %v %v %v %v %v\n",
		res.Cycles, res.Injected, res.Delivered,
		math.Float64bits(res.SustainedRate), math.Float64bits(res.AvgLatency),
		res.WorstLatency, res.P50, res.P99, res.TimedOut, res.Converged,
		res.Counters, res.Faults, res.Recovery)
	blob, err := res.Latency.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(blob)
	for _, a := range res.PerSource {
		blob, err := a.GobEncode()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(blob)
	}
}

// TestResultDigest is the tier-1 bit-exactness pin: every network family runs
// a synthetic workload that idles (the idle fast-forward is armed), a
// saturated one (standing offers are armed wherever the network holds them),
// and a dependency-driven trace replay, all through the default engine, and
// the hash of the Results must equal the pin.
func TestResultDigest(t *testing.T) {
	if sim.Version != pinnedVersion {
		t.Fatalf("sim.Version is %q but the digest is pinned for %q: rerun this test and pin its digest with the new version", sim.Version, pinnedVersion)
	}
	tr := digestTrace(t)
	h := sha256.New()
	for _, gn := range goldenNets() {
		for _, syn := range []struct {
			pat   traffic.Pattern
			rate  float64
			quota int
		}{
			{traffic.Random{}, 0.002, 16},
			{traffic.Transpose{}, 1.0, 32},
		} {
			net, err := gn.build()
			if err != nil {
				t.Fatal(err)
			}
			wl := traffic.NewSynthetic(gn.w, gn.h, syn.pat, syn.rate, syn.quota, 17)
			res, err := sim.Run(net, wl, sim.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", gn.name, syn.pat.Name(), err)
			}
			fmt.Fprintf(h, "%s/%s/%v\n", gn.name, syn.pat.Name(), syn.rate)
			writeResult(t, h, res)
		}
		net, err := gn.build()
		if err != nil {
			t.Fatal(err)
		}
		wl, err := trace.NewWorkload(tr, gn.w, gn.h)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(net, wl, sim.Options{})
		if err != nil {
			t.Fatalf("%s trace: %v", gn.name, err)
		}
		fmt.Fprintf(h, "%s/trace\n", gn.name)
		writeResult(t, h, res)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != pinnedDigest {
		t.Fatalf("Result digest %s, pinned %s for %s: a Result bit changed; if that is intended, bump sim.Version and pin the new digest with it", got, pinnedDigest, pinnedVersion)
	}
}
