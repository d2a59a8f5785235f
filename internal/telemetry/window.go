package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"

	"fasttrack/internal/noc"
	"fasttrack/internal/stats"
)

// WindowPoint is one W-cycle window of time-series measurements.
type WindowPoint struct {
	// Index numbers windows from 0; Start and End are the cycle bounds
	// [Start, End) — End-Start is the window length (the final window of a
	// run may be partial).
	Index      int
	Start, End int64
	// Delivered and Injected count events inside the window;
	// TotalDelivered and TotalInjected are the cumulative counts at End.
	Delivered, Injected           int64
	TotalDelivered, TotalInjected int64
	// Rate is delivered packets per cycle over the window.
	Rate float64
	// MeanLatency is the mean delivery latency of the window's deliveries
	// (cycles), 0 when nothing was delivered.
	MeanLatency float64
	// P99 is the window's 99th-percentile delivery latency when the caller
	// tracks a per-window histogram (Metrics does); 0 otherwise.
	P99 int64
	// InFlight is the network population at the window boundary.
	InFlight int
}

// WindowTracker slices a run into fixed W-cycle windows and computes the
// per-window delivery rate and mean latency from cumulative counters. It is
// the shared window bookkeeping behind both the Metrics observer and the
// engine's convergence detector (internal/sim), so the two always agree on
// window boundaries and statistics.
//
// The arithmetic is deliberately exact about operation order — the
// convergence early-exit compares these floats against tolerances, and its
// goldens require bit-stable values: Rate = float64(d)/float64(length),
// where length is W for every window but a run's tail, and
// MeanLatency = (latSum-prevLatSum)/float64(d).
type WindowTracker struct {
	// W is the window length in cycles; the tracker is inert when W <= 0.
	W int64

	idx           int
	start         int64
	prevDelivered int64
	prevInjected  int64
	prevLatSum    float64
}

// Boundary reports whether cycle now is the last cycle of a window.
func (t *WindowTracker) Boundary(now int64) bool {
	return t.W > 0 && (now+1)%t.W == 0
}

// Roll closes the window ending after cycle now and returns its point.
// delivered/injected are cumulative counts and latSum the cumulative
// delivery-latency sum at the end of the cycle. Roll is called only at
// boundaries, so the window it closes is exactly W cycles long.
func (t *WindowTracker) Roll(now, delivered, injected int64, latSum float64, inFlight int) WindowPoint {
	wp, _ := t.Flush(now+1, delivered, injected, latSum, inFlight)
	return wp
}

// Flush closes the window [start, endCycle): a full window from Roll, or
// the partial tail of a run that stopped between boundaries. It reports
// false when the window is empty.
func (t *WindowTracker) Flush(endCycle, delivered, injected int64, latSum float64, inFlight int) (WindowPoint, bool) {
	length := endCycle - t.start
	if length <= 0 {
		return WindowPoint{}, false
	}
	d := delivered - t.prevDelivered
	rate := float64(d) / float64(length)
	lat := 0.0
	if d > 0 {
		lat = (latSum - t.prevLatSum) / float64(d)
	}
	wp := WindowPoint{
		Index: t.idx, Start: t.start, End: endCycle,
		Delivered: d, Injected: injected - t.prevInjected,
		TotalDelivered: delivered, TotalInjected: injected,
		Rate: rate, MeanLatency: lat, InFlight: inFlight,
	}
	t.idx++
	t.start = endCycle
	t.prevDelivered, t.prevInjected, t.prevLatSum = delivered, injected, latSum
	return wp, true
}

// Metrics is an Observer that collects windowed time-series measurements:
// per-window throughput, mean and p99 latency, and in-flight occupancy.
// Create with NewMetrics, attach to a run, then call Finish before reading
// Points or writing the CSV.
type Metrics struct {
	Base
	tracker WindowTracker
	numPE   int

	delivered, injected int64
	latSum              float64
	hist                *stats.Histogram

	points    []WindowPoint
	lastCycle int64
	inFlight  int
	finished  bool
}

// NewMetrics returns a Metrics observer with the given window length in
// cycles (values < 1 are raised to 1) for a numPE-client network.
func NewMetrics(window int64, numPE int) *Metrics {
	if window < 1 {
		window = 1
	}
	if numPE < 1 {
		numPE = 1
	}
	return &Metrics{
		tracker: WindowTracker{W: window},
		numPE:   numPE,
		hist:    stats.NewLatencyHistogram(stats.DefaultHistogramMax),
	}
}

// Window returns the configured window length.
func (m *Metrics) Window() int64 { return m.tracker.W }

// OnInject implements Observer.
func (m *Metrics) OnInject(now int64, p *noc.Packet) { m.injected++ }

// OnDeliver implements Observer.
func (m *Metrics) OnDeliver(now int64, p *noc.Packet) {
	m.delivered++
	lat := now - p.Gen
	m.latSum += float64(lat)
	m.hist.Add(lat)
}

// OnCycleEnd implements Observer: at each window boundary the window rolls
// and its point is recorded.
func (m *Metrics) OnCycleEnd(now int64, inFlight int) {
	m.lastCycle = now + 1
	m.inFlight = inFlight
	if m.tracker.Boundary(now) {
		wp := m.tracker.Roll(now, m.delivered, m.injected, m.latSum, inFlight)
		wp.P99 = m.hist.Quantile(0.99)
		m.hist.Reset()
		m.points = append(m.points, wp)
	}
}

// Finish closes the trailing partial window, if any. Idempotent.
func (m *Metrics) Finish() {
	if m.finished {
		return
	}
	m.finished = true
	if wp, ok := m.tracker.Flush(m.lastCycle, m.delivered, m.injected, m.latSum, m.inFlight); ok {
		wp.P99 = m.hist.Quantile(0.99)
		m.hist.Reset()
		m.points = append(m.points, wp)
	}
}

// Points returns the recorded windows (call Finish first to include the
// trailing partial window).
func (m *Metrics) Points() []WindowPoint { return m.points }

// WriteCSV emits the time series, one row per window. Throughput is
// normalized per PE to match the paper's sustained-rate axis.
func (m *Metrics) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"window", "start_cycle", "end_cycle", "delivered", "injected",
		"throughput_per_pe", "mean_latency", "p99_latency", "in_flight",
	}); err != nil {
		return err
	}
	for _, p := range m.points {
		length := p.End - p.Start
		perPE := 0.0
		if length > 0 {
			perPE = float64(p.Delivered) / (float64(length) * float64(m.numPE))
		}
		if err := cw.Write([]string{
			fmt.Sprint(p.Index), fmt.Sprint(p.Start), fmt.Sprint(p.End),
			fmt.Sprint(p.Delivered), fmt.Sprint(p.Injected),
			fmt.Sprintf("%.6f", perPE),
			fmt.Sprintf("%.3f", p.MeanLatency),
			fmt.Sprint(p.P99), fmt.Sprint(p.InFlight),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// TelemetryKey implements Keyer.
func (m *Metrics) TelemetryKey() string {
	return fmt.Sprintf("metrics(w=%d)", m.tracker.W)
}
