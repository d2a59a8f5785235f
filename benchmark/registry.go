package main

import "strings"

// metricDef names one metric. BENCHMARK.json lists the same names, units and
// directions; bench_test.go holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before compare calls it a regression. Per-layer
	// metrics have none.
	Bound float64
}

// endToEnd are the metrics a user of the system sees, defined on every
// workload. An operation is the unit of work the workload's user waits for:
// one job the sweep orchestrator scheduled (paper-*), one simulation or
// replay (engine-*), one job from POST to terminal frame (serve-mixed).
// Failures are reported as failed/attempted beside the metrics rather than
// as a metric, because a healthy run reads exactly 0.
//
// The bounds are three times the widest run-to-run spread seen over ten
// seeds on the 2-core reference box (README.md has the table), capped at the
// 0.25 the benchmark contract allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p99_ms", "ms", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.10},
}

// perLayer are the traced run's metrics, one prefix per package. A metric
// whose layer the workload never enters reads 0 on that workload: that is
// the "this workload bypasses the layer" statement, not a measurement.
var perLayer = []metricDef{
	// traffic: external cycle loop over the synthetic jobs (engine-*), plus a probe.
	{Name: "traffic.offer_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "traffic.inject_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "traffic.new_us", Unit: "us", Better: "lower"},
	{Name: "traffic.idle_cycle_share", Unit: "ratio", Better: "lower"},
	// The three router families: Step per cycle on the N=16 RANDOM job of
	// each family in the workload, and construction cost (probe).
	{Name: "hoplite.step_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "fasttrack.step_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "multichannel.step_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "hoplite.build_us", Unit: "us", Better: "lower"},
	{Name: "fasttrack.build_us", Unit: "us", Better: "lower"},
	// noc: simulated counts, exact. Any movement is a semantics change.
	{Name: "noc.hops_per_pkt", Unit: "count", Better: "lower"},
	{Name: "noc.deflections_per_pkt", Unit: "count", Better: "lower"},
	{Name: "noc.express_share", Unit: "ratio", Better: "higher"},
	{Name: "noc.accept_share", Unit: "ratio", Better: "higher"},
	{Name: "noc.mean_inflight", Unit: "count", Better: "lower"},
	// sim: delivery bookkeeping, simulator speed, and the two wall-clock knobs.
	{Name: "sim.mpkts_per_s", Unit: "Mpkt/s", Better: "higher"},
	{Name: "sim.deliver_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "sim.mallocs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "sim.batch_speedup", Unit: "ratio", Better: "higher"},
	{Name: "sim.shard2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "stats.hist_add_ns", Unit: "ns", Better: "lower"},
	{Name: "monitor.collector_ratio", Unit: "ratio", Better: "lower"},
	// trace: external loop over trace.NewWorkload / trace.NewStream (engine-idle), plus probes.
	{Name: "trace.offer_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "trace.deliver_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "trace.idle_cycle_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.stream_vs_mem_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.workload_build_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.fingerprint_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "workloads.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "workloads.gen_mevents_per_s", Unit: "Mev/s", Better: "higher"},
	// runner: orchestrator counters of the workload's own sweep, plus cache probes.
	{Name: "runner.sims_executed", Unit: "count", Better: "lower"},
	{Name: "runner.cache_hits", Unit: "count", Better: "higher"},
	{Name: "runner.worker_util", Unit: "ratio", Better: "higher"},
	{Name: "runner.slowest_job_ms", Unit: "ms", Better: "lower"},
	{Name: "runner.cache_get_us", Unit: "us", Better: "lower"},
	{Name: "runner.cache_put_us", Unit: "us", Better: "lower"},
	{Name: "runner.cache_entry_kb", Unit: "kB", Better: "lower"},
	{Name: "runner.key_us", Unit: "us", Better: "lower"},
	{Name: "runner.foreach_us_per_job", Unit: "us", Better: "lower"},
	// experiments: spans around each Experiment.Run (paper-*); their sum is the pass.
	{Name: "experiments.fig11_12_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig13_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig15_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig17_s", Unit: "s", Better: "lower"},
	{Name: "experiments.rest_s", Unit: "s", Better: "lower"},
	{Name: "fpga.model_ms", Unit: "ms", Better: "lower"},
	{Name: "core.batch_new_ms", Unit: "ms", Better: "lower"},
	{Name: "cliflags.decode_us", Unit: "us", Better: "lower"},
	{Name: "cliflags.key_us", Unit: "us", Better: "lower"},
	// serve: client-side timers plus the daemon's /metrics and /debug/trace (serve-mixed).
	{Name: "serve.post_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.post_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.ttff_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_mean_us", Unit: "us", Better: "lower"},
	{Name: "serve.run_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.sse_flush_mean_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_peek_mean_us", Unit: "us", Better: "lower"},
	{Name: "serve.transport_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.dedup_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.rejected_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.sse_dropped", Unit: "count", Better: "lower"},
	// host: Go runtime cost over the timed passes.
	{Name: "host.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "host.peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "host.mallocs_per_job", Unit: "count", Better: "lower"},
	// bench: traced wall / untraced wall. It bounds how far the per-layer
	// numbers can be trusted and should stay at or below 1.10.
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// workload is one named set of inputs.
type workload struct {
	Name string
	Why  string
	// setupEveryPass re-runs setup before each timed pass (a fresh daemon per
	// pass); otherwise setup runs setupReps times before the first pass.
	// Either way setup_s is the median of the samples.
	setupEveryPass bool
	setupReps      int
	open           func(e *env) (instance, error)
}

var workloads = []*workload{
	{
		Name:      "paper-cold",
		Why:       "regenerate every paper table and figure into an empty result cache: Step, traffic, batching, trace generation, cache Put and worker scheduling all do real work",
		setupReps: 1,
		open:      func(e *env) (instance, error) { return openPaper(e, false) },
	},
	{
		Name:      "paper-warm",
		Why:       "re-render the same sweep from a populated cache: cache Get, key building and trace regeneration dominate and no simulation runs, so engine changes must be flat here",
		setupReps: 1,
		open:      func(e *env) (instance, error) { return openPaper(e, true) },
	},
	{
		Name:      "engine-sat",
		Why:       "one goroutine, saturated fabrics from 256 to 4096 routers: Step and source-queue feedback dominate; cache, idle-skip and HTTP work must be flat here",
		setupReps: 3,
		open:      func(e *env) (instance, error) { return openEngine(e, true) },
	},
	{
		Name:      "engine-idle",
		Why:       "one goroutine, mostly empty fabrics: low-rate synthetic plus dependency-driven trace replay, in memory and streamed from FTT1, so per-cycle engine and workload overhead dominates and Step is cheap",
		setupReps: 3,
		open:      func(e *env) (instance, error) { return openEngine(e, false) },
	},
	{
		Name:           "serve-mixed",
		Why:            "closed loop of procs clients against an in-process ftserve: sim and sweep jobs with 40% repeated specs, the only workload where serve, cliflags, obs and SSE are a visible share",
		setupEveryPass: true,
		open:           openServe,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, " | ")
}
