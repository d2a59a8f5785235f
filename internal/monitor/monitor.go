// Package monitor is the live observability subsystem: where
// internal/telemetry records what happened for post-hoc analysis (CSV and
// Perfetto traces), monitor answers "what is happening right now" and "why
// was that run pathological" while the simulator is still running.
//
// It has two parts:
//
//   - Server: an embeddable HTTP ops server exposing a run's sim.Progress
//     (the totals the engine publishes into it every few thousand cycles:
//     cycles, offered/accepted/delivered, in-flight, latency quantiles, hops
//     and deflections by wire class, express denials, drops, retransmits)
//     as Prometheus text on /metrics, Go runtime internals on /debug/pprof
//     and /debug/vars, and a packet-forensics dump on /debug/flight.
//   - FlightRecorder: a bounded per-packet lifecycle recorder whose report
//     names the worst packets (full hop history) and the routers that
//     deflected them — the forensic layer behind the starvation watchdog.
//
// Live metrics cost a run nothing per cycle: a sim.Progress is no observer,
// so an ftsim or fttrace run with -http keeps the idle skip, its Result
// bits and its cache key. Only -flight-recorder attaches an observer. The
// ftserve daemon uses this package only for its /metrics text.
package monitor

import "fasttrack/internal/telemetry"

// NewCollector returns no observer. It exists only because the benchmark's
// monitor.collector_ratio probe still calls it, and leaves with that probe:
// live totals are sim.Progress's now.
func NewCollector(w, h int) telemetry.Observer { return nil }
