package noctest

import (
	"testing"

	"fasttrack/internal/fasttrack"
	"fasttrack/internal/hoplite"
	"fasttrack/internal/noc"
)

// Case is one network configuration and offer schedule of the fabric suite.
type Case struct {
	Family string // "hoplite" or "fasttrack": the package whose tests run it
	Name   string
	Mk     func() (Fabric, error)
	Seed   uint64
	Rate   float64
	Cycles int
}

// Cases is the one table the kernel suite runs over both router families:
// every kernel-level property is checked against each entry.
var Cases = []Case{
	hopliteCase("8x8/low", 8, 8, 0.1, 200),
	hopliteCase("8x8/sat", 8, 8, 0.9, 120),
	hopliteCase("16x4/mid", 16, 4, 0.5, 150),
	fastTrackCase("full-d4r1/low", 4, 1, fasttrack.VariantFull, 0, 0.1, 200),
	fastTrackCase("full-d4r1/sat", 4, 1, fasttrack.VariantFull, 0, 0.9, 120),
	fastTrackCase("inject-d4r4/sat", 4, 4, fasttrack.VariantInject, 0, 0.9, 120),
	fastTrackCase("full-d2r2-pipe2/sat", 2, 2, fasttrack.VariantFull, 2, 0.9, 120),
}

func hopliteCase(name string, w, h int, rate float64, cycles int) Case {
	return Case{Family: "hoplite", Name: name, Seed: 0xF00D, Rate: rate, Cycles: cycles,
		Mk: func() (Fabric, error) { return hoplite.New(w, h) }}
}

func fastTrackCase(name string, d, r int, v fasttrack.Variant, pipe int, rate float64, cycles int) Case {
	return Case{Family: "fasttrack", Name: name, Seed: 0xBEEF, Rate: rate, Cycles: cycles,
		Mk: func() (Fabric, error) {
			top, err := fasttrack.NewTopology(8, d, r)
			if err != nil {
				return nil, err
			}
			return fasttrack.New(fasttrack.Config{Topology: top, Variant: v, ExpressPipeline: pipe})
		}}
}

// New builds the case's network, failing the test on error.
func (c Case) New(t testing.TB) Fabric {
	t.Helper()
	nw, err := c.Mk()
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// ForEach runs f as a subtest per case of the given family ("" for all).
func ForEach(t *testing.T, family string, f func(t *testing.T, c Case)) {
	for _, c := range Cases {
		if family != "" && c.Family != family {
			continue
		}
		name := c.Name
		if family == "" {
			name = c.Family + "/" + name
		}
		t.Run(name, func(t *testing.T) { f(t, c) })
	}
}

// StandingOffers is the conformance gate for Kernel.Hold. A single Hold must
// be indistinguishable from the same packet re-Offered every cycle until it is
// accepted — same accept cycles, delivered stream, counters (InjectionStalls
// included) and event log. An Offer over a standing offer must replace it,
// standing-ness included.
func StandingOffers(t *testing.T, c Case) {
	probe := c.New(t)
	sc := newSchedule(probe.Width(), probe.Height(), c.Seed, c.Cycles, c.Rate)
	want := reference(t, probe, sc)
	if want.counters.InjectionStalls == 0 {
		t.Fatal("no offer was ever refused; schedule too sparse to tell Hold from Offer")
	}
	requireEqual(t, "Hold", want, replay(t, c.New(t), sc, true))

	// Replacement: on a congested fabric every PE Holds a packet and then
	// Offers another over it. Only the second may ever enter, and only in
	// this cycle: the PEs refused now must not be retried.
	const held, oneCycle = int64(1) << 40, int64(1) << 41
	nw := c.New(t)
	w, n := nw.Width(), nw.NumPEs()
	now := Saturate(nw, 0, 40)
	for pe := 0; pe < n; pe++ {
		p := noc.Packet{ID: held | int64(pe), Src: noc.PECoord(pe, w), Dst: noc.PECoord((pe+n/2+1)%n, w), Gen: now}
		nw.Hold(pe, p)
		p.ID = oneCycle | int64(pe)
		nw.Offer(pe, p)
	}
	nw.Step(now)
	accepted := 0
	for pe := 0; pe < n; pe++ {
		if nw.Accepted(pe) {
			accepted++
		}
	}
	if accepted == 0 || accepted == n {
		t.Fatalf("%d of %d replacing offers accepted; need both outcomes", accepted, n)
	}
	entered := 0
	for ; ; now++ {
		for _, p := range nw.Delivered() {
			if p.ID&held != 0 {
				t.Fatalf("replaced standing offer %#x was injected", p.ID)
			}
			if p.ID&oneCycle != 0 {
				entered++
			}
		}
		if nw.InFlight() == 0 {
			break
		}
		nw.Step(now + 1)
	}
	if entered != accepted {
		t.Fatalf("%d replacing offers entered, %d were accepted in their one cycle", entered, accepted)
	}
}

// SaturatedStepAllocs returns the steady-state allocations per Step of a
// warmed, saturated network.
func SaturatedStepAllocs(nw Fabric) float64 {
	now := Saturate(nw, 0, 600)
	return testing.AllocsPerRun(200, func() { now = Saturate(nw, now, 1) })
}
