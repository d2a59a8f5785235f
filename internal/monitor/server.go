package monitor

import (
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"fasttrack/internal/obs"
	"fasttrack/internal/runner"
)

// ServerOptions configures an ops server. Every source is optional; the
// corresponding endpoints degrade gracefully (a /metrics scrape with no
// collector still exposes runner and process sections).
type ServerOptions struct {
	// Collector feeds the sim sections of /metrics.
	Collector *Collector
	// Flight serves /debug/flight forensic dumps.
	Flight *FlightRecorder
	// Runner feeds the sweep-orchestration sections of /metrics.
	Runner *runner.Orchestrator
	// Log receives the server lifecycle records and http.Server errors;
	// nil keeps the server silent (tests, embedders with their own logs).
	Log *slog.Logger
}

// Server is the embeddable HTTP ops server: /metrics (Prometheus text
// exposition), /debug/pprof, /debug/vars (expvar) and /debug/flight. Create
// with StartServer, stop with Close.
type Server struct {
	opts ServerOptions
	ln   net.Listener
	srv  *http.Server
}

// StartServer listens on addr (host:port; ":0" picks a free port) and
// serves in a background goroutine until Close.
func StartServer(addr string, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	s := &Server{opts: opts, ln: ln}
	s.srv = &http.Server{Handler: s.Handler()}
	if opts.Log != nil {
		s.srv.ErrorLog = slog.NewLogLogger(opts.Log.Handler(), slog.LevelWarn)
	}
	go s.srv.Serve(ln)
	if opts.Log != nil {
		opts.Log.Info("monitor server listening", "addr", s.Addr())
	}
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }

// Handler builds the ops mux; exposed for embedding into an existing
// server and for httptest-based tests.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		http.Redirect(w, r, "/metrics", http.StatusFound)
	})
	return mux
}

// PromWriter emits Prometheus text exposition format (version 0.0.4): a
// HELP/TYPE header per family followed by samples. It is exported so other
// HTTP surfaces (the ftserve fleet daemon) can emit the same format without
// depending on a metrics library; the first write error is sticky and
// silences the rest, mirroring the one-shot nature of a scrape response.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a PromWriter emitting to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

// Family writes a HELP/TYPE header for a metric family.
func (p *PromWriter) Family(name, help, typ string) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample; labels is the literal label block ("" or
// `{k="v"}` including braces).
func (p *PromWriter) Sample(name, labels string, v float64) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "%s%s %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// Counter writes a single-sample counter family.
func (p *PromWriter) Counter(name, help string, v int64) {
	p.Family(name, help, "counter")
	p.Sample(name, "", float64(v))
}

// Histogram writes a Prometheus histogram family from an obs duration
// snapshot: cumulative _bucket{le="..."} samples over the shared bucket
// geometry, then _sum in seconds (converted float64(SumNS)/1e9 — the exact
// rounding the span-vs-metrics reconciliation tests replay) and _count.
func (p *PromWriter) Histogram(name, help string, s obs.HistSnapshot) {
	p.Family(name, help, "histogram")
	var cum int64
	for i, b := range obs.HistBounds() {
		cum += s.Counts[i]
		le := strconv.FormatFloat(b.Seconds(), 'g', -1, 64)
		p.Sample(name+"_bucket", `{le="`+le+`"}`, float64(cum))
	}
	cum += s.Counts[len(s.Counts)-1]
	p.Sample(name+"_bucket", `{le="+Inf"}`, float64(cum))
	p.Sample(name+"_sum", "", s.SumSeconds())
	p.Sample(name+"_count", "", float64(s.Count))
}

// Gauge writes a single-sample gauge family.
func (p *PromWriter) Gauge(name, help string, v float64) {
	p.Family(name, help, "gauge")
	p.Sample(name, "", v)
}

// StageHist writes one stage-latency histogram (base_seconds) plus its
// p50/p99 summary gauges as separate families (base_p50_seconds —
// Prometheus reserves the histogram's own _bucket/_sum/_count suffixes).
// Quantiles resolve to bucket upper bounds under the repo-wide ceil-rank
// convention.
func (p *PromWriter) StageHist(base, help string, s obs.HistSnapshot) {
	p.Histogram(base+"_seconds", help, s)
	p.Gauge(base+"_p50_seconds", "Ceil-rank median of "+base+"_seconds, as a bucket upper bound.",
		s.Quantile(0.5).Seconds())
	p.Gauge(base+"_p99_seconds", "Ceil-rank 99th percentile of "+base+"_seconds, as a bucket upper bound.",
		s.Quantile(0.99).Seconds())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := NewPromWriter(w)
	if c := s.opts.Collector; c != nil {
		writeSimMetrics(p, c.Snapshot())
	}
	if o := s.opts.Runner; o != nil {
		WriteRunnerMetrics(p, o.Snapshot())
	}
	if f := s.opts.Flight; f != nil {
		rep := f.Report(1)
		p.Counter("fasttrack_flight_finished_total", "Packet lifecycles finished in the flight recorder.", rep.Finished)
		p.Gauge("fasttrack_flight_live", "Packet lifecycles currently tracked in flight.", float64(rep.Live))
		p.Counter("fasttrack_flight_evicted_total", "Finished lifecycles evicted from the bounded worst buffer.", rep.Evicted)
	}
}

func writeSimMetrics(p *PromWriter, s Snapshot) {
	p.Counter("fasttrack_sim_cycles_total", "Simulated cycles.", s.Cycles)
	p.Gauge("fasttrack_sim_cycles_per_second", "Mean simulation speed since the first event.", s.CyclesPerSec())
	p.Counter("fasttrack_sim_packets_offered_total", "Injection offers presented (accepted + refused).", s.Injected+s.Stalls)
	p.Counter("fasttrack_sim_packets_injected_total", "Offers accepted into the network.", s.Injected)
	p.Counter("fasttrack_sim_injection_stalls_total", "Offers refused (per PE per cycle).", s.Stalls)
	p.Counter("fasttrack_sim_packets_delivered_total", "Packets delivered to clients.", s.Delivered)
	p.Counter("fasttrack_sim_packets_dropped_total", "Packets destroyed by faults or abandoned by retry budget.", s.Drops)
	p.Counter("fasttrack_sim_retransmits_total", "Retransmit copies queued by the resilience layer.", s.Retrans)
	p.Gauge("fasttrack_sim_packets_in_flight", "Packets inside the network now.", float64(s.InFlight))

	p.Family("fasttrack_sim_hops_total", "Wire traversals by link class.", "counter")
	p.Sample("fasttrack_sim_hops_total", `{wire="local"}`, float64(s.HopsLocal))
	p.Sample("fasttrack_sim_hops_total", `{wire="express"}`, float64(s.HopsExpress))
	p.Family("fasttrack_sim_deflections_total", "True deflections by the wire class of the deflected input.", "counter")
	p.Sample("fasttrack_sim_deflections_total", `{wire="local"}`, float64(s.DeflectLocal))
	p.Sample("fasttrack_sim_deflections_total", `{wire="express"}`, float64(s.DeflectExpress))
	p.Counter("fasttrack_sim_express_denied_total", "Packets denied an express resource (fell back to a short wire).", s.Denied)

	p.Family("fasttrack_sim_latency_cycles", "Cumulative delivery-latency quantiles in cycles.", "gauge")
	p.Sample("fasttrack_sim_latency_cycles", `{quantile="0.5"}`, float64(s.P50))
	p.Sample("fasttrack_sim_latency_cycles", `{quantile="0.99"}`, float64(s.P99))
	p.Gauge("fasttrack_sim_latency_mean_cycles", "Cumulative mean delivery latency in cycles.", s.MeanLatency())
}

// WriteRunnerMetrics emits the sweep-orchestration metric families for an
// orchestrator snapshot; exported so the ftserve daemon's fleet /metrics can
// include the same section.
func WriteRunnerMetrics(p *PromWriter, s runner.Snapshot) {
	p.Counter("fasttrack_runner_jobs_executed_total", "Sweep jobs computed fresh.", s.Executed)
	p.Counter("fasttrack_runner_jobs_cached_total", "Sweep jobs answered from the result cache.", s.CacheHits)
	p.Counter("fasttrack_runner_jobs_failed_total", "Sweep jobs that returned an error.", s.Failed)
	ratio := 0.0
	if total := s.Executed + s.CacheHits; total > 0 {
		ratio = float64(s.CacheHits) / float64(total)
	}
	p.Gauge("fasttrack_runner_cache_hit_ratio", "Cache hits over all completed jobs.", ratio)
	p.Gauge("fasttrack_runner_workers_active", "Jobs running right now.", float64(s.Active))
	p.Gauge("fasttrack_runner_jobs_pending", "Jobs admitted to a batch but not yet started.", float64(s.Pending))
	p.Gauge("fasttrack_runner_workers", "Worker pool size.", float64(s.Workers))

	p.StageHist("fasttrack_runner_job_simulated", "Per-job wall clock of fresh simulations.", s.HistSimulated)
	p.StageHist("fasttrack_runner_job_cached", "Per-job cache-hit lookup latency.", s.HistCacheHit)
}

func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if s.opts.Flight == nil {
		http.Error(w, "flight recorder not enabled (run with -flight-recorder N)", http.StatusNotFound)
		return
	}
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			k = v
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.opts.Flight.WriteReport(w, k)
}
