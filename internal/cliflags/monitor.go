package cliflags

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"fasttrack/internal/monitor"
	"fasttrack/internal/obs"
	"fasttrack/internal/runner"
	"fasttrack/internal/telemetry"
)

// Monitor is the live-observability flag group (-http, -flight-recorder,
// -flight-out, -span-trace). All off by default: a run without these flags
// attaches no observer and starts no server, preserving the engine's
// nil-check-only disabled path.
type Monitor struct {
	HTTP           string
	FlightRecorder int
	FlightOut      string
	SpanTrace      string
}

// RegisterMonitor registers the monitoring flags on fs (all off by default).
func RegisterMonitor(fs *flag.FlagSet) *Monitor {
	m := &Monitor{}
	fs.StringVar(&m.HTTP, "http", "", "serve live metrics on this address (/metrics, /debug/flight, /debug/pprof); \":0\" picks a free port")
	fs.IntVar(&m.FlightRecorder, "flight-recorder", 0, "record per-packet lifecycles, keeping the N worst for forensics (0 = off)")
	fs.StringVar(&m.FlightOut, "flight-out", "", "write the flight-recorder forensic report to this file on an invariant trip (default: inline in the log record)")
	fs.StringVar(&m.SpanTrace, "span-trace", "", "write per-job sweep spans as Chrome trace-event JSON to this file (Perfetto-loadable)")
	return m
}

// Ops is the observer stack built from the Telemetry and Monitor flag
// groups: attach Observer to the run, then Close once the run finishes —
// failed or not — to write the reports, terminate the packet trace and stop
// the server.
type Ops struct {
	// Observer fans out to every enabled observer: packet tracer, link
	// stats, windowed metrics, live collector, flight recorder. nil when no
	// flag asked for one, costing the run nothing.
	Observer telemetry.Observer
	// Log receives the flight-recorder forensics record (DumpFlight);
	// nil falls back to slog.Default().
	Log *slog.Logger

	tracer    *telemetry.Tracer
	link      *telemetry.LinkStats
	metrics   *telemetry.Metrics
	collector *monitor.Collector
	flight    *monitor.FlightRecorder
	server    *monitor.Server
	spans     *runner.SpanLog
	traceFile *os.File

	linkPath, metricsPath, spanPath, flightOut string
}

// BuildOps opens the observer stack the flags ask for, for a w×h run.
// Either group may be nil: the sweep tools register no Telemetry group and
// pass w, h = 0, getting the runner/span side only. orch, when non-nil, is
// exported on /metrics and receives the span log when -span-trace is set.
// On error, the trace file, if already opened, is closed.
func BuildOps(t *Telemetry, m *Monitor, w, h int, orch *runner.Orchestrator) (*Ops, error) {
	if t == nil {
		t = &Telemetry{}
	}
	if m == nil {
		m = &Monitor{}
	}
	o := &Ops{}
	if t.TraceOut != "" {
		f, err := os.Create(t.TraceOut)
		if err != nil {
			return nil, err
		}
		o.traceFile = f
		o.tracer = telemetry.NewTracer(telemetry.TracerOptions{Sample: t.TraceSample, Chrome: f})
	}
	if t.LinkStats != "" {
		o.link, o.linkPath = telemetry.NewLinkStats(w, h), t.LinkStats
	}
	if t.MetricsOut != "" {
		o.metrics, o.metricsPath = telemetry.NewMetrics(t.MetricsWindow, w*h), t.MetricsOut
	}
	if m.HTTP != "" && w > 0 && h > 0 {
		o.collector = monitor.NewCollector(w, h)
	}
	if m.FlightRecorder > 0 {
		o.flight, o.flightOut = monitor.NewFlightRecorder(m.FlightRecorder, w), m.FlightOut
	}
	if m.SpanTrace != "" && orch != nil {
		o.spans, o.spanPath = runner.NewSpanLog(), m.SpanTrace
		orch.Spans = o.spans
	}
	o.Observer = telemetry.Multi(asObserver(o.tracer), asObserver(o.link), asObserver(o.metrics),
		asObserver(o.collector), asObserver(o.flight))
	if m.HTTP != "" {
		srv, err := monitor.StartServer(m.HTTP, monitor.ServerOptions{
			Collector: o.collector, Flight: o.flight, Runner: orch,
			Log: slog.Default(),
		})
		if err != nil {
			if o.traceFile != nil {
				o.traceFile.Close()
			}
			return nil, err
		}
		o.server = srv
		fmt.Fprintf(os.Stderr, "monitor: live on http://%s (/metrics, /debug/flight, /debug/pprof)\n", srv.Addr())
	}
	return o, nil
}

// asObserver converts a possibly-nil concrete observer pointer into a
// possibly-nil interface (a nil *T in a non-nil interface would defeat
// Multi's nil filtering).
func asObserver[T any, PT interface {
	*T
	telemetry.Observer
}](p PT) telemetry.Observer {
	if p == nil {
		return nil
	}
	return p
}

// DumpFlight emits the flight recorder's forensic report (the k worst
// packet lifecycles plus deflection blame) as one structured log record
// carrying any trace/job IDs on ctx; no-op without -flight-recorder. CLIs
// and the daemon call it when a run trips the watchdog or an invariant
// check. With -flight-out the raw report also lands in a file — a crashing
// process keeps its forensics even when the log pipeline escapes newlines
// or drops the record — and the log carries the path instead of the body.
func (o *Ops) DumpFlight(ctx context.Context, k int) {
	if o.flight == nil {
		return
	}
	var buf bytes.Buffer
	o.flight.WriteReport(&buf, k)
	log := obs.LoggerWith(ctx, o.Log)
	if o.flightOut != "" {
		if err := os.WriteFile(o.flightOut, buf.Bytes(), 0o644); err != nil {
			log.Error("flight forensics: report file failed; inlining",
				"error", err, "worst", k, "report", buf.String())
			return
		}
		log.Error("flight forensics written", "worst", k, "path", o.flightOut)
		return
	}
	log.Error("flight forensics", "worst", k, "report", buf.String())
}

// Close finalizes the stack, in order: the metrics tail window is flushed
// and both CSV reports are written, the packet trace is terminated and the
// files are closed, the span trace is written and the server stops. It
// returns the first error encountered.
func (o *Ops) Close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if o.metrics != nil {
		o.metrics.Finish()
		keep(writeFile(o.metricsPath, o.metrics.WriteCSV))
	}
	if o.link != nil {
		keep(writeFile(o.linkPath, o.link.WriteCSV))
	}
	if o.tracer != nil {
		keep(o.tracer.Close())
		keep(o.traceFile.Close())
	}
	if o.spans != nil {
		keep(writeFile(o.spanPath, o.spans.WriteChrome))
	}
	if o.server != nil {
		keep(o.server.Close())
	}
	return first
}

// writeFile creates path, writes one report into it and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
