package cliflags_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fasttrack/internal/cliflags"
	"fasttrack/internal/core"
)

func parse(t *testing.T, args []string) (*cliflags.Topology, *cliflags.Workload, *cliflags.Faults, *cliflags.Telemetry) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	topo := cliflags.RegisterTopology(fs, cliflags.TopologyDefaults())
	work := cliflags.RegisterWorkload(fs, cliflags.WorkloadDefaults())
	flt := cliflags.RegisterFaults(fs)
	telem := cliflags.RegisterTelemetry(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return topo, work, flt, telem
}

func TestTopologyConfig(t *testing.T) {
	topo, _, _, _ := parse(t, []string{"-noc", "ft", "-n", "16", "-d", "4", "-r", "2", "-width", "128"})
	cfg, err := topo.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.N != 16 || cfg.D != 4 || cfg.R != 2 || cfg.WidthBits != 128 {
		t.Fatalf("config = %+v", cfg)
	}

	topo, _, _, _ = parse(t, []string{"-noc", "multi", "-n", "8", "-channels", "3"})
	cfg, err = topo.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Channels != 3 {
		t.Fatalf("config = %+v", cfg)
	}

	topo, _, _, _ = parse(t, []string{"-noc", "bogus"})
	if _, err := topo.Config(); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown -noc: err = %v", err)
	}

	topo, _, _, _ = parse(t, []string{"-variant", "bogus"})
	if _, err := topo.Config(); err == nil || !strings.Contains(err.Error(), "variant") {
		t.Fatalf("unknown -variant: err = %v", err)
	}
}

func TestWorkloadAndFaultsApply(t *testing.T) {
	_, work, flt, _ := parse(t, []string{
		"-pattern", "TRANSPOSE", "-rate", "0.7", "-packets", "50", "-seed", "9",
		"-faults", "0.01", "-retry", "32",
	})
	var o core.SyntheticOptions
	work.Apply(&o)
	flt.Apply(&o)
	if o.Pattern != "TRANSPOSE" || o.Rate != 0.7 || o.PacketsPerPE != 50 || o.Seed != 9 {
		t.Fatalf("workload: %+v", o)
	}
	if o.Faults == nil || o.Faults.DropRate != 0.01 || o.Faults.Seed != 1 {
		t.Fatalf("faults: %+v", o.Faults)
	}
	if o.Retry == nil || o.Retry.Timeout != 32 {
		t.Fatalf("retry: %+v", o.Retry)
	}

	// All-defaults: no fault schedule, no retry policy.
	_, _, flt, _ = parse(t, nil)
	var off core.SyntheticOptions
	flt.Apply(&off)
	if off.Faults != nil || off.Retry != nil {
		t.Fatalf("defaults must leave faults off: %+v %+v", off.Faults, off.Retry)
	}
}

// TestTelemetryEndToEnd parses telemetry flags, runs a real simulation with
// the built sinks attached, and validates the three output artifacts: the
// Chrome trace is one JSON document in trace-event format, and both CSVs
// have their headers and data.
func TestTelemetryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.json")
	linkOut := filepath.Join(dir, "links.csv")
	metricsOut := filepath.Join(dir, "metrics.csv")

	topo, work, _, telem := parse(t, []string{
		"-noc", "ft", "-n", "8", "-rate", "0.5", "-packets", "60",
		"-trace-out", traceOut,
		"-link-stats", linkOut,
		"-metrics-out", metricsOut, "-metrics-window", "64",
	})
	cfg, err := topo.Config()
	if err != nil {
		t.Fatal(err)
	}
	var opts core.SyntheticOptions
	work.Apply(&opts)
	sinks, err := cliflags.BuildOps(telem, nil, topo.N, topo.N, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts.Observer = sinks.Observer
	if opts.Observer == nil {
		t.Fatal("no observer built")
	}
	if _, err := core.RunSynthetic(context.Background(), cfg, opts); err != nil {
		t.Fatal(err)
	}
	if err := sinks.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-trace-out is not a trace-event JSON document: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}

	links, err := os.ReadFile(linkOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(links), "x,y,dir,class,hops") {
		t.Fatalf("link CSV header: %q", strings.SplitN(string(links), "\n", 2)[0])
	}
	if !strings.Contains(string(links), "express") {
		t.Fatal("link CSV does not label express wires")
	}

	metrics, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(metrics), "window,start_cycle") {
		t.Fatalf("metrics CSV header: %q", strings.SplitN(string(metrics), "\n", 2)[0])
	}
}

// TestTelemetryDisabled: with no flags, Build yields a nil observer so the
// engine's hot path stays hook-free.
func TestTelemetryDisabled(t *testing.T) {
	_, _, _, telem := parse(t, nil)
	sinks, err := cliflags.BuildOps(telem, nil, 8, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sinks.Observer != nil {
		t.Fatal("observer must be nil when no telemetry flag is set")
	}
	if err := sinks.Close(); err != nil {
		t.Fatal(err)
	}
}
