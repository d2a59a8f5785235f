package fabric_test

import (
	"reflect"
	"testing"

	"fasttrack/internal/fasttrack"
	"fasttrack/internal/hoplite"
	"fasttrack/internal/multichannel"
	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
	"fasttrack/internal/xrand"
)

// The kernel is exercised through both router families, and through
// multichannel's K Hoplite kernels: the suite drives instances of one network
// through an identical precomputed offer schedule, presented in different
// styles, and asserts that the delivered packet stream, event counters,
// telemetry event log, and residual in-flight population are bit-identical.

// kernelNet is what the suite needs from a network under test: the
// standing-offer protocol and the observer attachment point.
type kernelNet interface {
	noc.Standing
	telemetry.Observable
}

// suiteCase is one network configuration and offer schedule of the suite.
type suiteCase struct {
	name   string // family/configuration/load
	mk     func() (kernelNet, error)
	seed   uint64
	rate   float64
	cycles int
}

// cases is the one table the kernel suite runs over both router families:
// every kernel-level property is checked against each entry.
var cases = []suiteCase{
	hopliteCase("8x8/low", 8, 8, 0.1, 200),
	hopliteCase("8x8/sat", 8, 8, 0.9, 120),
	hopliteCase("16x4/mid", 16, 4, 0.5, 150),
	fastTrackCase("full-d4r1/low", 4, 1, fasttrack.VariantFull, 0, 0.1, 200),
	fastTrackCase("full-d4r1/sat", 4, 1, fasttrack.VariantFull, 0, 0.9, 120),
	fastTrackCase("inject-d4r4/sat", 4, 4, fasttrack.VariantInject, 0, 0.9, 120),
	fastTrackCase("full-d2r2-pipe2/sat", 2, 2, fasttrack.VariantFull, 2, 0.9, 120),
	{name: "multichannel/2x8x8/sat", seed: 0xCAFE, rate: 0.9, cycles: 120,
		mk: func() (kernelNet, error) { return multichannel.New(8, 8, 2) }},
}

func hopliteCase(name string, w, h int, rate float64, cycles int) suiteCase {
	return suiteCase{name: "hoplite/" + name, seed: 0xF00D, rate: rate, cycles: cycles,
		mk: func() (kernelNet, error) { return hoplite.New(w, h) }}
}

func fastTrackCase(name string, d, r int, v fasttrack.Variant, pipe int, rate float64, cycles int) suiteCase {
	return suiteCase{name: "fasttrack/" + name, seed: 0xBEEF, rate: rate, cycles: cycles,
		mk: func() (kernelNet, error) {
			top, err := fasttrack.NewTopology(8, d, r)
			if err != nil {
				return nil, err
			}
			return fasttrack.New(fasttrack.Config{Topology: top, Variant: v, ExpressPipeline: pipe})
		}}
}

// build builds the case's network, failing the test on error.
func (c suiteCase) build(t testing.TB) kernelNet {
	t.Helper()
	nw, err := c.mk()
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestStandingOffers is the conformance gate for Kernel.Hold. A single Hold
// must be indistinguishable from the same packet re-Offered every cycle until
// it is accepted — same accept cycles, delivered stream, counters
// (InjectionStalls included) and event log. An Offer over a standing offer
// must replace it, standing-ness included.
func TestStandingOffers(t *testing.T) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { standingOffers(t, c) })
	}
}

func standingOffers(t *testing.T, c suiteCase) {
	probe := c.build(t)
	sc := newSchedule(probe.Width(), probe.Height(), c.seed, c.cycles, c.rate)
	want := reference(t, probe, sc)
	if want.counters.InjectionStalls == 0 {
		t.Fatal("no offer was ever refused; schedule too sparse to tell Hold from Offer")
	}
	requireEqual(t, "Hold", want, replay(t, c.build(t), sc, true))

	// Replacement: on a congested fabric every PE Holds a packet and then
	// Offers another over it. Only the second may ever enter, and only in
	// this cycle: the PEs refused now must not be retried.
	const held, oneCycle = int64(1) << 40, int64(1) << 41
	nw := c.build(t)
	w, n := nw.Width(), nw.NumPEs()
	now := saturate(nw, 0, 40)
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

// TestRetract: a retracted standing offer is gone and is never accepted,
// while the offers left standing still enter.
func TestRetract(t *testing.T) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const tag = int64(1) << 40
			nw := c.build(t)
			w, n := nw.Width(), nw.NumPEs()
			now := saturate(nw, 0, 40)
			for pe := 0; pe < n; pe++ {
				nw.Hold(pe, noc.Packet{ID: tag | int64(pe), Src: noc.PECoord(pe, w), Dst: noc.PECoord((pe+n/2+1)%n, w), Gen: now})
			}
			nw.Step(now)
			standing := 0
			for pe := 0; pe < n; pe++ {
				if !nw.Accepted(pe) && pe%2 == 0 {
					nw.Retract(pe)
				} else if !nw.Accepted(pe) {
					standing++
				}
			}
			if standing == 0 {
				t.Fatal("every offer was accepted at once; nothing to retract")
			}
			for now++; nw.InFlight() > 0 || standing > 0; now++ {
				if now > 10_000 {
					t.Fatalf("%d standing offers never entered", standing)
				}
				nw.Step(now)
				for _, pe := range nw.AcceptedPEs() {
					if pe%2 == 0 {
						t.Fatalf("cycle %d: retracted offer at PE %d was accepted", now, pe)
					}
					standing--
				}
			}
		})
	}
}

// TestStepAllocs pins the steady state of the hot loop: a warmed, saturated
// Step allocates nothing — plain and pipelined FastTrack (the pipeline pass)
// and Hoplite-3x (the shared exit mask) included.
func TestStepAllocs(t *testing.T) {
	top, err := fasttrack.NewTopology(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mk   func() (noc.Network, error)
	}{
		{"hoplite16", func() (noc.Network, error) { return hoplite.New(16, 16) }},
		{"FT(256,2,1)", func() (noc.Network, error) { return fasttrack.New(fasttrack.Config{Topology: top}) }},
		{"FT(256,2,1)-pipe2", func() (noc.Network, error) {
			return fasttrack.New(fasttrack.Config{Topology: top, ExpressPipeline: 2})
		}},
		{"Hoplite-3x", func() (noc.Network, error) { return multichannel.New(16, 16, 3) }},
	} {
		nw, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		now := saturate(nw, 0, 600)
		if a := testing.AllocsPerRun(200, func() { now = saturate(nw, now, 1) }); a != 0 {
			t.Errorf("%s: %v allocs per saturated Step, want 0", tc.name, a)
		}
	}
}

// saturate offers a packet at every PE for the given cycles, stepping from
// cycle from on; destinations are a fixed function of (PE, cycle). It returns
// the next cycle.
func saturate(nw noc.Network, from int64, cycles int) int64 {
	w, n := nw.Width(), nw.NumPEs()
	for now := from; now < from+int64(cycles); now++ {
		for pe := 0; pe < n; pe++ {
			dst := (pe*7 + int(now)*13 + 1) % n
			if dst == pe {
				dst = (dst + 1) % n
			}
			nw.Offer(pe, noc.Packet{ID: now<<20 | int64(pe), Src: noc.PECoord(pe, w), Dst: noc.PECoord(dst, w), Gen: now})
		}
		nw.Step(now)
	}
	return from + int64(cycles)
}

// event is one recorded router-level telemetry event.
type event struct {
	kind   string
	now    int64
	router int
	port   noc.Port
	p      noc.Packet
}

// recorder captures the router-level events for order comparison.
type recorder struct {
	telemetry.Base
	events []event
}

func (r *recorder) add(kind string, now int64, router int, port noc.Port, p *noc.Packet) {
	r.events = append(r.events, event{kind, now, router, port, *p})
}

// kindNames are the recorded kind strings, indexed by telemetry.HopKind.
var kindNames = [...]string{"hop", "exhop", "deflect", "denied"}

func (r *recorder) OnHop(now int64, router int, port noc.Port, kind telemetry.HopKind, p *noc.Packet) {
	r.add(kindNames[kind], now, router, port, p)
}

// schedule is a precomputed offer plan: per-PE destination queues plus a
// per-(cycle,PE) offer gate. An open gate starts the head of the PE's queue,
// which stays outstanding until the network accepts it.
type schedule struct {
	cycles int
	queues [][]noc.Coord
	gates  []bool
}

func newSchedule(w, h int, seed uint64, cycles int, rate float64) schedule {
	n := w * h
	rng := xrand.New(seed)
	const perPE = 24
	queues := make([][]noc.Coord, n)
	for pe := 0; pe < n; pe++ {
		src := noc.PECoord(pe, w)
		for len(queues[pe]) < perPE {
			if dst := (noc.Coord{X: rng.Intn(w), Y: rng.Intn(h)}); dst != src {
				queues[pe] = append(queues[pe], dst)
			}
		}
	}
	gates := make([]bool, cycles*n)
	for i := range gates {
		gates[i] = rng.Bool(rate)
	}
	return schedule{cycles: cycles, queues: queues, gates: gates}
}

// accept is one (cycle, PE) at which the network took an offer.
type accept struct {
	now int64
	pe  int
}

type runResult struct {
	accepts   []accept
	delivered []noc.Packet
	counters  noc.Counters
	events    []event
	inFlight  int
}

// replay runs sc through nw — offered-traffic window, then a drain with no
// new offers — and returns everything an equivalent run must reproduce. With
// hold each packet is presented once as a standing offer; otherwise it is
// re-Offered every cycle until accepted.
func replay(t *testing.T, nw kernelNet, sc schedule, hold bool) runResult {
	t.Helper()
	rec := &recorder{}
	nw.SetObserver(rec)

	w, n := nw.Width(), nw.NumPEs()
	qpos := make([]int, n)
	// standing marks PEs whose offer is still outstanding, head holds the
	// packet; both outlive the offered window until accepted.
	standing := make([]bool, n)
	head := make([]noc.Packet, n)
	outstanding := 0
	var accepts []accept
	var delivered []noc.Packet
	var offered []int
	maxCycles := sc.cycles + 20*n // offered window + generous drain
	for c := 0; c < maxCycles; c++ {
		now := int64(c)
		offered = offered[:0]
		for pe := 0; pe < n; pe++ {
			switch {
			case standing[pe]:
				if !hold {
					nw.Offer(pe, head[pe])
				}
			case c < sc.cycles && qpos[pe] < len(sc.queues[pe]) && sc.gates[c*n+pe]:
				head[pe] = noc.Packet{
					ID:  int64(pe)<<32 | int64(qpos[pe]),
					Src: noc.PECoord(pe, w),
					Dst: sc.queues[pe][qpos[pe]],
					Gen: now,
				}
				if hold {
					nw.Hold(pe, head[pe])
				} else {
					nw.Offer(pe, head[pe])
				}
				standing[pe] = true
				outstanding++
			default:
				continue
			}
			offered = append(offered, pe)
		}
		nw.Step(now)
		for _, pe := range offered {
			if nw.Accepted(pe) {
				qpos[pe]++
				standing[pe] = false
				outstanding--
				accepts = append(accepts, accept{now, pe})
			}
		}
		delivered = append(delivered, nw.Delivered()...)
		if c >= sc.cycles && nw.InFlight() == 0 && outstanding == 0 {
			break
		}
	}
	return runResult{
		accepts:   accepts,
		delivered: delivered,
		counters:  *nw.Counters(),
		events:    rec.events,
		inFlight:  nw.InFlight(),
	}
}

// requireEqual fails unless got reproduces want exactly.
func requireEqual(t *testing.T, what string, want, got runResult) {
	t.Helper()
	if got.inFlight != 0 {
		t.Fatalf("%s: did not drain, %d in flight", what, got.inFlight)
	}
	if !reflect.DeepEqual(want.accepts, got.accepts) {
		t.Fatalf("%s: accept cycles diverged (%d vs %d accepts)", what, len(want.accepts), len(got.accepts))
	}
	if !reflect.DeepEqual(want.delivered, got.delivered) {
		t.Fatalf("%s: delivered stream diverged (%d vs %d packets)", what, len(want.delivered), len(got.delivered))
	}
	if want.counters != got.counters {
		t.Fatalf("%s: counters diverged\nwant: %+v\ngot:  %+v", what, want.counters, got.counters)
	}
	if !reflect.DeepEqual(want.events, got.events) {
		t.Fatalf("%s: telemetry event log diverged (%d vs %d events)", what, len(want.events), len(got.events))
	}
}

// reference is the re-Offer run every other run is compared against.
func reference(t *testing.T, nw kernelNet, sc schedule) runResult {
	t.Helper()
	ref := replay(t, nw, sc, false)
	if ref.inFlight != 0 {
		t.Fatalf("reference run did not drain: %d in flight", ref.inFlight)
	}
	if len(ref.delivered) == 0 || len(ref.events) == 0 {
		t.Fatal("reference run delivered or recorded nothing; schedule too sparse")
	}
	return ref
}
