// Command fttrace generates, records, inspects, and replays the application
// communication traces behind the paper's Fig 15 case studies.
//
// Traces exist in two interchangeable formats with the same content
// fingerprint: a line-oriented text form and the compact FTT1 binary form
// (.ftt), which records and replays in constant memory.
//
// Examples:
//
//	fttrace -list
//	fttrace -suite spmv -bench add20 -n 8 > add20.trace
//	fttrace -suite spmv -bench add20 -n 8 -record add20.ftt
//	fttrace -record add20.ftt -from add20.trace
//	fttrace -decode add20.ftt > add20.trace
//	fttrace -fingerprint add20.ftt
//	fttrace -suite lu -bench s953_4568 -n 8 -stats
//	fttrace -replay add20.ftt -noc ft -n 8 -d 2 -r 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"fasttrack/internal/cliflags"
	"fasttrack/internal/core"
	"fasttrack/internal/sim"
	"fasttrack/internal/trace"
	"fasttrack/internal/workloads/dataflow"
	"fasttrack/internal/workloads/graphwl"
	"fasttrack/internal/workloads/overlay"
	"fasttrack/internal/workloads/spmv"
)

func main() {
	list := flag.Bool("list", false, "list suites and benchmarks")
	suite := flag.String("suite", "", "suite: spmv | graph | lu | overlay")
	bench := flag.String("bench", "", "benchmark name within the suite")
	n := flag.Int("n", 8, "torus width (trace targets NxN PEs)")
	stats := flag.Bool("stats", false, "print trace statistics instead of the trace")
	record := flag.String("record", "", "write the trace as an FTT1 binary file (from -suite/-bench, streamed, or from -from)")
	from := flag.String("from", "", "input trace file for -record (text or FTT1, sniffed)")
	decode := flag.String("decode", "", "decode a trace file (text or FTT1, sniffed) to text on stdout")
	fingerprint := flag.String("fingerprint", "", "print a trace file's identity (name, PEs, events, fingerprint)")
	replay := flag.String("replay", "", "replay a trace file (text or FTT1, sniffed) on a NoC instead of generating")
	nocKind := flag.String("noc", "ft", "replay network: hoplite | ft")
	d := flag.Int("d", 2, "FastTrack D for replay")
	r := flag.Int("r", 1, "FastTrack R for replay")
	seed := flag.Uint64("seed", 1, "seed for synthetic trace generation")
	rep := cliflags.RegisterReplay(flag.CommandLine)
	telem := cliflags.RegisterTelemetry(flag.CommandLine)
	mon := cliflags.RegisterMonitor(flag.CommandLine)
	logf := cliflags.RegisterLogging(flag.CommandLine, "warn")
	flag.Parse()

	logger, err := logf.Logger(os.Stderr)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	switch {
	case *list:
		listBenchmarks()
	case *fingerprint != "":
		src, closer, err := trace.OpenFile(*fingerprint)
		if err != nil {
			fatal(err)
		}
		defer closer.Close()
		hdr := src.Header()
		fmt.Printf("name=%s pes=%d events=%d fp=%016x\n", hdr.Name, hdr.PEs, hdr.Events, hdr.Fingerprint)
	case *decode != "":
		src, closer, err := trace.OpenFile(*decode)
		if err != nil {
			fatal(err)
		}
		defer closer.Close()
		if err := trace.WriteText(os.Stdout, src); err != nil {
			fatal(err)
		}
	case *record != "":
		hdr, err := recordTrace(*record, *from, *suite, *bench, *n, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "fttrace: recorded %s: %d PEs, %d events, fp=%016x\n",
			hdr.Name, hdr.PEs, hdr.Events, hdr.Fingerprint)
	case *replay != "":
		src, closer, err := trace.OpenFile(*replay)
		if err != nil {
			fatal(err)
		}
		defer closer.Close()
		replayTrace(src, *nocKind, *n, *d, *r, rep, telem, mon, logger)
	default:
		g, err := lookup(*suite, *bench, *n, *seed)
		if err != nil {
			fatal(err)
		}
		tr, err := g.trace()
		if err != nil {
			fatal(err)
		}
		if *stats {
			s := tr.ComputeStats(*n, *n)
			fmt.Printf("trace %s: %d PEs, %d events (%d self), max fan-in %d, critical path %d, avg fwd distance %.1f\n",
				tr.Name, tr.PEs, s.Events, s.SelfEvents, s.MaxFanIn, s.CritPathLen, s.AvgDistance)
			return
		}
		if err := trace.WriteText(os.Stdout, tr); err != nil {
			fatal(err)
		}
	}
}

func listBenchmarks() {
	fmt.Println("spmv:")
	for _, m := range spmv.Benchmarks() {
		fmt.Printf("  %s\n", m)
	}
	fmt.Println("graph:")
	for _, b := range graphwl.Benchmarks() {
		fmt.Printf("  %s\n", b.Graph)
	}
	fmt.Println("lu:")
	for _, m := range dataflow.Benchmarks() {
		fmt.Printf("  %s\n", m)
	}
	fmt.Println("overlay:")
	for _, b := range overlay.Benchmarks() {
		fmt.Printf("  %s\n", b.Name)
	}
}

// recordTrace writes an FTT1 file: converted from an existing trace file
// (-from, format sniffed) or streamed straight out of a generator — the
// generator path never materializes the trace.
func recordTrace(out, from, suite, bench string, n int, seed uint64) (trace.Header, error) {
	f, err := os.Create(out)
	if err != nil {
		return trace.Header{}, err
	}
	hdr, err := recordInto(f, from, suite, bench, n, seed)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(out)
		return trace.Header{}, err
	}
	return hdr, nil
}

func recordInto(f io.WriteSeeker, from, suite, bench string, n int, seed uint64) (trace.Header, error) {
	if from != "" {
		src, closer, err := trace.OpenFile(from)
		if err != nil {
			return trace.Header{}, err
		}
		defer closer.Close()
		return trace.EncodeBinaryFrom(f, src)
	}
	if suite == "" {
		return trace.Header{}, fmt.Errorf("-record needs -from or -suite/-bench")
	}
	g, err := lookup(suite, bench, n, seed)
	if err != nil {
		return trace.Header{}, err
	}
	return g.write(f)
}

// replayTrace runs src on the selected NoC. A binary source replays
// streaming (constant memory, -trace-window bounds residency); a text
// source was read into memory and replays with the window off.
func replayTrace(src trace.Source, nocKind string, n, d, r int, rep *cliflags.Replay, telem *cliflags.Telemetry, mon *cliflags.Monitor, logger *slog.Logger) {
	cfg := core.Hoplite(n)
	if nocKind == "ft" {
		cfg = core.FastTrack(n, d, r)
	}
	ops, err := cliflags.BuildOps(telem, mon, n, n, nil)
	if err != nil {
		fatal(err)
	}
	ops.Log = logger
	topts := core.TraceOptions{Observer: ops.Observer}
	rep.Apply(&topts)
	ctx := context.Background()
	res, err := core.RunTrace(ctx, cfg, src, topts)
	var inv *sim.InvariantError
	if errors.As(err, &inv) {
		ops.DumpFlight(ctx, 10)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fttrace:", err)
	}
	// The stack closes on the error path too: a failed replay is the one its
	// trace and reports exist for.
	if cerr := ops.Close(); cerr != nil {
		fatal(cerr)
	}
	if err != nil {
		os.Exit(1)
	}
	hdr := src.Header()
	fmt.Printf("%s on %s: %d cycles, %d messages, avg latency %.1f, worst %d\n",
		hdr.Name, cfg, res.Cycles, res.Delivered, res.AvgLatency, res.WorstLatency)
}

// generator is one benchmark's trace at a fixed size, built in memory or
// streamed to an FTT1 file without materializing it.
type generator struct {
	trace func() (*trace.Trace, error)
	write func(io.WriteSeeker) (trace.Header, error)
}

// lookup finds bench in suite for an n×n network.
func lookup(suite, bench string, n int, seed uint64) (generator, error) {
	switch suite {
	case "spmv":
		for _, m := range spmv.Benchmarks() {
			if m.Name == bench {
				return generator{
					func() (*trace.Trace, error) { return spmv.Trace(m, n, n, spmv.Options{}) },
					func(f io.WriteSeeker) (trace.Header, error) { return spmv.WriteTo(m, n, n, spmv.Options{}, f) },
				}, nil
			}
		}
	case "graph":
		for _, b := range graphwl.Benchmarks() {
			if b.Graph.Name == bench {
				part := b.PartitionFor(n * n)
				return generator{
					func() (*trace.Trace, error) { return graphwl.Trace(b.Graph, part, n, n, graphwl.Options{}) },
					func(f io.WriteSeeker) (trace.Header, error) {
						return graphwl.WriteTo(b.Graph, part, n, n, graphwl.Options{}, f)
					},
				}, nil
			}
		}
	case "lu":
		for _, m := range dataflow.Benchmarks() {
			if m.Name == bench {
				return generator{
					func() (*trace.Trace, error) { return dataflow.Trace(m, n, n, dataflow.Options{}) },
					func(f io.WriteSeeker) (trace.Header, error) { return dataflow.WriteTo(m, n, n, dataflow.Options{}, f) },
				}, nil
			}
		}
	case "overlay":
		for _, b := range overlay.Benchmarks() {
			if b.Name == bench {
				active := overlay.ActivePEs(n)
				return generator{
					func() (*trace.Trace, error) { return overlay.Trace(b, n, n, active, seed) },
					func(f io.WriteSeeker) (trace.Header, error) { return overlay.WriteTo(b, n, n, active, seed, f) },
				}, nil
			}
		}
	default:
		return generator{}, fmt.Errorf("unknown suite %q (spmv|graph|lu|overlay)", suite)
	}
	return generator{}, fmt.Errorf("benchmark %q not found in suite %s (try -list)", bench, suite)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fttrace:", err)
	os.Exit(1)
}
