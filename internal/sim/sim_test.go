package sim_test

import (
	"context"
	"errors"
	"testing"

	"fasttrack/internal/hoplite"
	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
	"fasttrack/internal/trace"
	"fasttrack/internal/traffic"
)

// idleWorkload claims work remains but never produces a packet. With the
// network empty and no offers made, this is deliberate idleness, not a
// livelock — the stall tripwire must leave it alone.
type idleWorkload struct{}

func (idleWorkload) Tick(int64)                            {}
func (idleWorkload) Pending(int, int64) (noc.Packet, bool) { return noc.Packet{}, false }
func (idleWorkload) Injected(int, int64)                   {}
func (idleWorkload) Delivered(noc.Packet, int64)           {}
func (idleWorkload) Done() bool                            { return false }

// insistentWorkload offers the same packet at PE 0 every cycle, forever.
type insistentWorkload struct{}

func (insistentWorkload) Tick(int64) {}
func (insistentWorkload) Pending(pe int, now int64) (noc.Packet, bool) {
	if pe != 0 {
		return noc.Packet{}, false
	}
	return noc.Packet{Dst: noc.Coord{X: 1}, Gen: now}, true
}
func (insistentWorkload) Injected(int, int64)         {}
func (insistentWorkload) Delivered(noc.Packet, int64) {}
func (insistentWorkload) Done() bool                  { return false }

// refuser vetoes every injection — a client port that is permanently
// backpressured. An offer refused cycle after cycle is a genuine livelock.
type refuser struct{ noc.Network }

func (r *refuser) Offer(int, noc.Packet) {}
func (r *refuser) Accepted(int) bool     { return false }

func TestStallTripwire(t *testing.T) {
	nw, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(&refuser{Network: nw}, insistentWorkload{},
		sim.Options{MaxCycles: 100000, StallLimit: 500})
	if !errors.Is(err, sim.ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

// TestIdleWorkloadDoesNotStall is the regression test for the watchdog
// false positive: a workload that is merely idle — nothing pending, empty
// network — must run to the cycle limit without tripping ErrStalled, no
// matter how far past StallLimit the idle period stretches.
func TestIdleWorkloadDoesNotStall(t *testing.T) {
	nw, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(nw, idleWorkload{}, sim.Options{MaxCycles: 5000, StallLimit: 500})
	if err != nil {
		t.Fatalf("idle workload tripped the watchdog: %v", err)
	}
	if !res.TimedOut {
		t.Errorf("expected the idle run to hit MaxCycles, got %d cycles", res.Cycles)
	}
}

// TestIdleTraceGapDoesNotStall replays a trace whose second event sits in a
// compute gap far longer than StallLimit. The gap is legitimate idleness —
// the run must complete both events rather than abort with ErrStalled.
func TestIdleTraceGapDoesNotStall(t *testing.T) {
	tr := &trace.Trace{
		Name: "idle-gap",
		PEs:  16,
		Events: []trace.Event{
			{Src: 0, Dst: 1, Delay: 0},
			{Src: 1, Dst: 0, Deps: []int32{0}, Delay: 2000}, // gap > StallLimit
		},
	}
	wl, err := trace.NewWorkload(tr, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(nw, wl, sim.Options{MaxCycles: 100000, StallLimit: 500})
	if err != nil {
		t.Fatalf("idle trace gap tripped the watchdog: %v", err)
	}
	if res.Delivered != 2 || res.TimedOut {
		t.Errorf("delivered %d (timedOut=%v), want both events delivered", res.Delivered, res.TimedOut)
	}
}

func TestMaxCyclesTimesOut(t *testing.T) {
	nw, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(4, 4, traffic.Random{}, 0.01, 1000, 1)
	res, err := sim.Run(nw, wl, sim.Options{MaxCycles: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || res.Cycles != 50 {
		t.Errorf("TimedOut=%v cycles=%d", res.TimedOut, res.Cycles)
	}
}

func TestResultStatistics(t *testing.T) {
	nw, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(4, 4, traffic.Random{}, 0.2, 100, 2)
	res, err := sim.Run(nw, wl, sim.Options{CheckConservation: true, MaxPacketAge: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1600 || res.Injected != 1600 {
		t.Fatalf("counts %d/%d", res.Injected, res.Delivered)
	}
	if res.AvgLatency <= 0 || res.WorstLatency < int64(res.AvgLatency) {
		t.Errorf("latencies avg=%v worst=%v", res.AvgLatency, res.WorstLatency)
	}
	if res.P50 > res.P99 || res.P99 > res.WorstLatency {
		t.Errorf("quantiles p50=%d p99=%d worst=%d", res.P50, res.P99, res.WorstLatency)
	}
	if res.SustainedRate <= 0 || res.SustainedRate > 1 {
		t.Errorf("sustained rate %v", res.SustainedRate)
	}
	if res.Latency.Count() != 1600 {
		t.Errorf("histogram count %d", res.Latency.Count())
	}
	if res.Counters.Delivered != 1600 {
		t.Errorf("counters delivered %d", res.Counters.Delivered)
	}
}

// TestLatencyIncludesSourceQueueing: at saturation, average latency must
// vastly exceed the unloaded network diameter because packets queue at the
// source — the behaviour behind the paper's Fig 12 hockey sticks.
func TestLatencyIncludesSourceQueueing(t *testing.T) {
	low, err := runAt(0.02)
	if err != nil {
		t.Fatal(err)
	}
	high, err := runAt(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if high.AvgLatency < 5*low.AvgLatency {
		t.Errorf("saturated latency %v should dwarf unloaded %v", high.AvgLatency, low.AvgLatency)
	}
}

func runAt(rate float64) (sim.Result, error) {
	nw, err := hoplite.New(8, 8)
	if err != nil {
		return sim.Result{}, err
	}
	wl := traffic.NewSynthetic(8, 8, traffic.Random{}, rate, 300, 3)
	return sim.Run(nw, wl, sim.Options{})
}

// cancelOnTick cancels its context from the first Tick and counts the Ticks
// the engine executes afterwards. Embedding the view keeps it an
// EventWorkload, so the idle fast-forward stays armed.
type cancelOnTick struct {
	*traffic.SynthView
	cancel context.CancelFunc
	ticks  int
}

func (c *cancelOnTick) Tick(now int64) {
	c.cancel()
	c.ticks++
	c.SynthView.Tick(now)
}

// TestCancelUnderIdleSkip: cancellation latency is bounded in executed
// cycles, not virtual ones. A low-rate run fast-forwards its clock over
// almost every multiple of the poll interval, so a poll keyed on the virtual
// clock fires only when an executed cycle happens to land on one; keyed on
// executed cycles it fires by the 4096th (with this seed the clock-keyed poll
// needed 19353). JobTimeout and ftserve per-job deadlines depend on this.
func TestCancelUnderIdleSkip(t *testing.T) {
	nw, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	wl := &cancelOnTick{SynthView: traffic.NewSynthetic(4, 4, traffic.Random{}, 0.0005, 1000, 2), cancel: cancel}
	_, err = sim.Run(nw, wl, sim.Options{Context: ctx, MaxCycles: 1 << 40})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if wl.ticks > 4096 {
		t.Errorf("cancellation noticed after %d executed cycles, want <= 4096", wl.ticks)
	}
}
