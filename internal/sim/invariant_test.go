package sim_test

import (
	"errors"
	"testing"

	"fasttrack/internal/hoplite"
	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
	"fasttrack/internal/traffic"
)

// blackhole is a deliberately broken network: it swallows every delivery
// while still claiming the packets are in flight. Injection keeps making
// progress, so the stall tripwire never fires — only the age watchdog can
// catch it.
type blackhole struct {
	noc.Network
	swallowed int
}

func (b *blackhole) Step(now int64) {
	b.Network.Step(now)
	b.swallowed += len(b.Network.Delivered())
}
func (b *blackhole) Delivered() []noc.Packet { return nil }
func (b *blackhole) InFlight() int           { return b.Network.InFlight() + b.swallowed }

// TestWatchdogFailsFastOnBrokenRouter is an acceptance criterion: the
// watchdog must fail fast — far below the cycle limit — on a network that
// starves packets, and attach a diagnostic snapshot.
func TestWatchdogFailsFastOnBrokenRouter(t *testing.T) {
	inner, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(4, 4, traffic.Random{}, 0.1, 1<<20, 5)
	const limit = 1 << 20
	_, err = sim.Run(latch(&blackhole{Network: inner}), wl, sim.Options{
		MaxCycles:    limit,
		MaxPacketAge: 1000,
		StallLimit:   limit, // defeat the stall tripwire; the watchdog must act
	})
	if !errors.Is(err, sim.ErrStarvation) {
		t.Fatalf("err = %v, want ErrStarvation", err)
	}
	var ie *sim.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("err %T is not *InvariantError", err)
	}
	if ie.Cycle >= limit/100 {
		t.Errorf("watchdog fired at cycle %d; not fast for limit %d", ie.Cycle, limit)
	}
	if len(ie.Snapshot) == 0 {
		t.Error("diagnostic snapshot is empty")
	}
	for i := 1; i < len(ie.Snapshot); i++ {
		if ie.Snapshot[i].Inject < ie.Snapshot[i-1].Inject {
			t.Error("snapshot not ordered oldest-first")
		}
	}
}

// lossy silently destroys every 17th delivered packet without adjusting
// InFlight — exactly the kind of router bug per-cycle conservation catches
// at the offending cycle instead of at end of run.
type lossy struct {
	noc.Network
	n   int
	out []noc.Packet
}

func (l *lossy) Step(now int64) {
	l.Network.Step(now)
	l.out = l.out[:0]
	for _, p := range l.Network.Delivered() {
		l.n++
		if l.n%17 == 0 {
			continue
		}
		l.out = append(l.out, p)
	}
}
func (l *lossy) Delivered() []noc.Packet { return l.out }

func TestPerCycleConservationCatchesLoss(t *testing.T) {
	inner, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(4, 4, traffic.Random{}, 0.3, 500, 2)
	_, err = sim.Run(latch(&lossy{Network: inner}), wl, sim.Options{CheckConservation: true})
	if !errors.Is(err, sim.ErrConservation) {
		t.Fatalf("err = %v, want ErrConservation", err)
	}
	var ie *sim.InvariantError
	if !errors.As(err, &ie) || ie.Cycle > 2000 {
		t.Errorf("loss not caught promptly: %v", err)
	}
}

// duper delivers the first packet twice.
type duper struct {
	noc.Network
	done bool
	out  []noc.Packet
}

func (d *duper) Step(now int64) {
	d.Network.Step(now)
	d.out = append(d.out[:0], d.Network.Delivered()...)
	if !d.done && len(d.out) > 0 {
		d.done = true
		d.out = append(d.out, d.out[0])
	}
}
func (d *duper) Delivered() []noc.Packet { return d.out }

func TestDuplicateDeliveryDetected(t *testing.T) {
	inner, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(4, 4, traffic.Random{}, 0.3, 100, 3)
	_, err = sim.Run(latch(&duper{Network: inner}), wl, sim.Options{CheckConservation: true})
	if !errors.Is(err, sim.ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

// misdeliverer corrupts the destination of the first delivered packet, as a
// router with flipped address bits would.
type misdeliverer struct {
	noc.Network
	done bool
	out  []noc.Packet
}

func (m *misdeliverer) Step(now int64) {
	m.Network.Step(now)
	m.out = append(m.out[:0], m.Network.Delivered()...)
	if !m.done && len(m.out) > 0 {
		m.done = true
		m.out[0].Dst.X = (m.out[0].Dst.X + 1) % m.Network.Width()
	}
}
func (m *misdeliverer) Delivered() []noc.Packet { return m.out }

func TestMisdeliveryDetected(t *testing.T) {
	inner, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(4, 4, traffic.Random{}, 0.3, 100, 4)
	_, err = sim.Run(latch(&misdeliverer{Network: inner}), wl, sim.Options{CheckConservation: true})
	if !errors.Is(err, sim.ErrMisdelivered) {
		t.Fatalf("err = %v, want ErrMisdelivered", err)
	}
}

// TestStallErrorIsStructured: the existing livelock tripwire now reports a
// typed *InvariantError while keeping the ErrStalled sentinel.
func TestStallErrorIsStructured(t *testing.T) {
	nw, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(latch(&refuser{Network: nw}), insistentWorkload{},
		sim.Options{MaxCycles: 100000, StallLimit: 500})
	if !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	var ie *sim.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("err %T is not *InvariantError", err)
	}
}

// TestCleanRunPassesAllChecks: a healthy network under full auditing and a
// tight-but-fair watchdog completes without tripping anything.
func TestCleanRunPassesAllChecks(t *testing.T) {
	nw, err := hoplite.New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(8, 8, traffic.Random{}, 0.2, 200, 6)
	res, err := sim.Run(nw, wl, sim.Options{CheckConservation: true, MaxPacketAge: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Injected {
		t.Errorf("delivered %d != injected %d", res.Delivered, res.Injected)
	}
}
