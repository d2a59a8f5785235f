package telemetry_test

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"fasttrack/internal/noc"
	"fasttrack/internal/telemetry"
)

func pkt(id int64, sx, sy, dx, dy int, gen int64) noc.Packet {
	return noc.Packet{
		ID:  id,
		Src: noc.Coord{X: sx, Y: sy},
		Dst: noc.Coord{X: dx, Y: dy},
		Gen: gen,
	}
}

// TestWindowTrackerMath checks window boundaries and the per-window rate and
// mean-latency arithmetic against hand-computed values, including the exact
// operation order the convergence detector depends on.
func TestWindowTrackerMath(t *testing.T) {
	tr := telemetry.WindowTracker{W: 10}

	if tr.Boundary(0) || tr.Boundary(5) {
		t.Fatal("boundary fired mid-window")
	}
	if !tr.Boundary(9) || !tr.Boundary(19) {
		t.Fatal("boundary missed at cycles 9 and 19")
	}

	// Window 0: cycles [0,10), 4 delivered, 6 injected, total latency 20.
	wp := tr.Roll(9, 4, 6, 20, 3)
	if wp.Index != 0 || wp.Start != 0 || wp.End != 10 {
		t.Fatalf("window 0 bounds: %+v", wp)
	}
	if wp.Delivered != 4 || wp.Injected != 6 || wp.TotalDelivered != 4 {
		t.Fatalf("window 0 counts: %+v", wp)
	}
	if want := float64(4) / float64(10); wp.Rate != want {
		t.Fatalf("window 0 rate = %v, want %v", wp.Rate, want)
	}
	if want := 20.0 / 4.0; wp.MeanLatency != want {
		t.Fatalf("window 0 mean latency = %v, want %v", wp.MeanLatency, want)
	}
	if wp.InFlight != 3 {
		t.Fatalf("window 0 in-flight = %d", wp.InFlight)
	}

	// Window 1: cumulative 10 delivered / 12 injected, latency 50 —
	// deltas 6, 6, 30.
	wp = tr.Roll(19, 10, 12, 50, 0)
	if wp.Index != 1 || wp.Start != 10 || wp.End != 20 {
		t.Fatalf("window 1 bounds: %+v", wp)
	}
	if wp.Delivered != 6 || wp.TotalDelivered != 10 {
		t.Fatalf("window 1 counts: %+v", wp)
	}
	if want := (50.0 - 20.0) / float64(6); wp.MeanLatency != want {
		t.Fatalf("window 1 mean latency = %v, want %v", wp.MeanLatency, want)
	}

	// Partial tail: run ended at cycle 24, 2 more deliveries.
	wp, ok := tr.Flush(24, 12, 14, 60, 1)
	if !ok {
		t.Fatal("flush dropped a non-empty tail")
	}
	if wp.Start != 20 || wp.End != 24 {
		t.Fatalf("tail bounds: %+v", wp)
	}
	if want := float64(2) / float64(4); wp.Rate != want {
		t.Fatalf("tail rate = %v, want %v (rate must use the actual tail length)", wp.Rate, want)
	}

	// A second flush at the same cycle has nothing to report.
	if _, ok := tr.Flush(24, 12, 14, 60, 1); ok {
		t.Fatal("empty tail flushed twice")
	}
}

// TestWindowTrackerZeroDeliveries: a window with no deliveries must report
// MeanLatency 0, not NaN.
func TestWindowTrackerZeroDeliveries(t *testing.T) {
	tr := telemetry.WindowTracker{W: 4}
	wp := tr.Roll(3, 0, 2, 0, 2)
	if wp.Rate != 0 || wp.MeanLatency != 0 || math.IsNaN(wp.MeanLatency) {
		t.Fatalf("empty window: %+v", wp)
	}
}

// TestWindowTrackerInert: W <= 0 disables the tracker.
func TestWindowTrackerInert(t *testing.T) {
	tr := telemetry.WindowTracker{}
	for now := int64(0); now < 100; now++ {
		if tr.Boundary(now) {
			t.Fatalf("inert tracker fired at %d", now)
		}
	}
}

// TestMetricsWindows drives the Metrics observer by hand and checks the
// windowed throughput, latency, and p99 values.
func TestMetricsWindows(t *testing.T) {
	m := telemetry.NewMetrics(5, 4)

	inject := func(now int64, p noc.Packet) { m.OnInject(now, &p) }
	deliver := func(now int64, p noc.Packet, lat int64) {
		p.Gen = now - lat
		m.OnDeliver(now, &p)
	}

	// Window 0 [0,5): 3 injected, 2 delivered with latencies 2 and 4.
	inject(0, pkt(1, 0, 0, 1, 0, 0))
	inject(1, pkt(2, 0, 0, 1, 1, 1))
	inject(2, pkt(3, 1, 0, 0, 0, 2))
	deliver(3, pkt(1, 0, 0, 1, 0, 0), 2)
	deliver(4, pkt(2, 0, 0, 1, 1, 0), 4)
	for now := int64(0); now < 5; now++ {
		m.OnCycleEnd(now, 1)
	}
	// Window 1 [5,10): 1 delivered with latency 7.
	deliver(6, pkt(3, 1, 0, 0, 0, 0), 7)
	for now := int64(5); now < 10; now++ {
		m.OnCycleEnd(now, 0)
	}
	m.Finish()
	m.Finish() // idempotent

	pts := m.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d windows, want 2: %+v", len(pts), pts)
	}
	w0, w1 := pts[0], pts[1]
	if w0.Injected != 3 || w0.Delivered != 2 {
		t.Fatalf("window 0 counts: %+v", w0)
	}
	if want := 2.0 / 5.0; w0.Rate != want {
		t.Fatalf("window 0 rate = %v, want %v", w0.Rate, want)
	}
	if want := (2.0 + 4.0) / 2.0; w0.MeanLatency != want {
		t.Fatalf("window 0 mean latency = %v, want %v", w0.MeanLatency, want)
	}
	if w0.P99 != 4 {
		t.Fatalf("window 0 p99 = %d, want 4", w0.P99)
	}
	// The per-window histogram resets: window 1's p99 must reflect only its
	// own single delivery.
	if w1.Delivered != 1 || w1.P99 != 7 {
		t.Fatalf("window 1: %+v (histogram must reset per window)", w1)
	}

	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("CSV rows = %d, want header + 2", len(rows))
	}
	wantHeader := "window,start_cycle,end_cycle,delivered,injected,throughput_per_pe,mean_latency,p99_latency,in_flight"
	if got := strings.Join(rows[0], ","); got != wantHeader {
		t.Fatalf("CSV header = %q", got)
	}
}

// TestLinkStats checks per-link classification, totals, and the CSV shape.
func TestLinkStats(t *testing.T) {
	l := telemetry.NewLinkStats(2, 2)
	p := pkt(1, 0, 0, 1, 1, 0)

	l.OnHop(0, 0, noc.PortESh, telemetry.HopLocal, &p)
	l.OnHop(0, 0, noc.PortESh, telemetry.HopLocal, &p)
	l.OnHop(1, 3, noc.PortSSh, telemetry.HopLocal, &p)
	l.OnHop(1, 1, noc.PortEEx, telemetry.HopExpress, &p)
	l.OnHop(2, 2, noc.PortSEx, telemetry.HopExpress, &p)
	l.OnHop(2, 2, noc.PortSEx, telemetry.HopExpress, &p)
	l.OnHop(3, 3, noc.PortWSh, telemetry.HopDeflect, &p)
	l.OnHop(3, 1, noc.PortPE, telemetry.HopDenied, &p)
	for now := int64(0); now < 4; now++ {
		l.OnCycleEnd(now, 0)
	}

	local, express := l.Totals()
	if local != 3 || express != 3 {
		t.Fatalf("totals = (%d, %d), want (3, 3)", local, express)
	}
	if l.Cycles() != 4 {
		t.Fatalf("cycles = %d", l.Cycles())
	}

	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rows[0], ","); got != "x,y,dir,class,hops,utilization,deflections,express_denied" {
		t.Fatalf("CSV header = %q", got)
	}
	// 2x2 routers × 4 link classes.
	if len(rows) != 1+2*2*4 {
		t.Fatalf("CSV rows = %d, want %d", len(rows), 1+2*2*4)
	}
	// Each router's four rows are its output wires, noc.PortESh..PortSEx in
	// order, labelled by the wire's direction and class.
	for i, r := range rows[1:] {
		port := noc.PortESh + noc.Port(i%4)
		class := "local"
		if port.IsExpress() {
			class = "express"
		}
		if want := []string{port.String()[:1], class}; r[2] != want[0] || r[3] != want[1] {
			t.Fatalf("row %d (%s,%s): (dir, class) = (%s, %s), want (%s, %s) for %v",
				i+1, r[0], r[1], r[2], r[3], want[0], want[1], port)
		}
	}
	classes := map[string]bool{}
	var haveExpressRow bool
	for _, r := range rows[1:] {
		classes[r[3]] = true
		if r[3] == "express" && r[4] != "0" {
			haveExpressRow = true
		}
	}
	if !classes["local"] || !classes["express"] {
		t.Fatalf("CSV must label both wire classes, got %v", classes)
	}
	if !haveExpressRow {
		t.Fatal("no express link recorded traffic")
	}
}

// TestTracerChromeTrace checks the Chrome trace-event output is one valid
// JSON document with balanced async begin/end pairs — the property Perfetto
// needs to load it.
func TestTracerChromeTrace(t *testing.T) {
	var chrome bytes.Buffer
	tr := telemetry.NewTracer(telemetry.TracerOptions{Chrome: &chrome})

	a, b := pkt(1, 0, 0, 2, 1, 0), pkt(2, 1, 1, 3, 0, 0)
	tr.OnInject(0, &a)
	tr.OnInject(0, &b)
	tr.OnHop(1, 1, noc.PortESh, telemetry.HopLocal, &a)
	tr.OnHop(1, 5, noc.PortSEx, telemetry.HopExpress, &b)
	tr.OnHop(2, 2, noc.PortWSh, telemetry.HopDeflect, &a)
	a.Deflections = 1
	tr.OnDeliver(3, &a)
	tr.OnDrop(4, &b)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			ID   string         `json:"id"`
			PID  int            `json:"pid"`
			TS   int64          `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not a JSON document: %v\n%s", err, chrome.String())
	}
	begins := map[string]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "b":
			begins[e.ID]++
		case "e":
			begins[e.ID]--
		case "n":
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
		if e.Cat != "pkt" {
			t.Fatalf("cat = %q, want pkt", e.Cat)
		}
	}
	for id, n := range begins {
		if n != 0 {
			t.Fatalf("unbalanced async events for id %s: %d", id, n)
		}
	}
	// Both packets must open and close a track (deliver and drop).
	if len(begins) != 2 {
		t.Fatalf("tracked %d packets, want 2", len(begins))
	}
}

// TestTracerSampling: with Sample=K only packets with ID %% K == 0 are
// recorded, each as its own Perfetto track.
func TestTracerSampling(t *testing.T) {
	var chrome bytes.Buffer
	tr := telemetry.NewTracer(telemetry.TracerOptions{Chrome: &chrome, Sample: 4})
	for id := int64(0); id < 8; id++ {
		p := pkt(id, 0, 0, 1, 1, 0)
		tr.OnInject(0, &p)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			ID string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not a JSON document: %v\n%s", err, chrome.String())
	}
	var tracks []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "b" {
			tracks = append(tracks, e.ID)
		}
	}
	if !reflect.DeepEqual(tracks, []string{"0", "4"}) {
		t.Fatalf("sampled tracks %v, want [0 4]:\n%s", tracks, chrome.String())
	}
}

// TestMultiFanOut: Multi drops nils, collapses to the sole observer, and
// fans out to all.
func TestMultiFanOut(t *testing.T) {
	if telemetry.Multi() != nil || telemetry.Multi(nil, nil) != nil {
		t.Fatal("Multi of nothing must be nil")
	}
	a := telemetry.NewLinkStats(2, 2)
	if got := telemetry.Multi(nil, a, nil); got != telemetry.Observer(a) {
		t.Fatal("Multi with one live observer must return it unwrapped")
	}
	b := telemetry.NewMetrics(4, 4)
	m := telemetry.Multi(a, b)
	p := pkt(1, 0, 0, 1, 0, 0)
	m.OnHop(0, 0, noc.PortESh, telemetry.HopLocal, &p)
	m.OnInject(0, &p)
	m.OnCycleEnd(0, 1)
	if local, _ := a.Totals(); local != 1 {
		t.Fatalf("fan-out missed LinkStats: local = %d", local)
	}
	if a.Cycles() != 1 {
		t.Fatal("fan-out missed OnCycleEnd")
	}
}

// TestKeys: cache-key strings distinguish observer configurations.
func TestKeys(t *testing.T) {
	if telemetry.Key(nil) != "" {
		t.Fatal("nil observer must key to empty")
	}
	a := telemetry.Key(telemetry.NewMetrics(64, 16))
	b := telemetry.Key(telemetry.NewMetrics(128, 16))
	if a == b || a == "" {
		t.Fatalf("metrics keys must encode the window: %q vs %q", a, b)
	}
	m := telemetry.Key(telemetry.Multi(telemetry.NewLinkStats(2, 2), telemetry.NewMetrics(64, 4)))
	if !strings.Contains(m, "linkstats") || !strings.Contains(m, "metrics") {
		t.Fatalf("multi key must name its parts: %q", m)
	}
}
