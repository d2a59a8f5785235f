package cliflags

import "flag"

// Telemetry is the observability flag group (-trace-out, -trace-sample,
// -link-stats, -metrics-out, -metrics-window). BuildOps turns it, together
// with the Monitor group, into one observer stack.
type Telemetry struct {
	TraceOut      string
	TraceSample   int64
	LinkStats     string
	MetricsOut    string
	MetricsWindow int64
}

// RegisterTelemetry registers the telemetry flags on fs (all off by default).
func RegisterTelemetry(fs *flag.FlagSet) *Telemetry {
	t := &Telemetry{}
	fs.StringVar(&t.TraceOut, "trace-out", "", "write a Chrome/Perfetto trace-event JSON of packet lifecycles to this file")
	fs.Int64Var(&t.TraceSample, "trace-sample", 1, "trace 1-in-K packets by ID (1 = all)")
	fs.StringVar(&t.LinkStats, "link-stats", "", "write per-link utilization CSV (local vs express wire classes) to this file")
	fs.StringVar(&t.MetricsOut, "metrics-out", "", "write windowed time-series metrics CSV to this file")
	fs.Int64Var(&t.MetricsWindow, "metrics-window", 1024, "window length in cycles for -metrics-out")
	return t
}
