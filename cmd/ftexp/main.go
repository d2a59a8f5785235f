// Command ftexp regenerates the paper's tables and figures.
//
// Usage:
//
//	ftexp -list
//	ftexp -run fig11            # one experiment
//	ftexp -run paper            # every paper table and figure, paper order
//	ftexp -run all              # the paper's, then the ext- extensions
//	ftexp -run fig15a -quick    # CI-sized sweep
//
// Each experiment is one declarative figure value in internal/experiments:
// the simulations it reads, how their results become rows, and the columns
// printed.
//
// Every simulation goes through the sweep orchestrator (internal/runner):
// independent runs fan out across -workers, and each consults the
// content-addressed result cache under -cache-dir first, so a re-run after
// an interrupted or repeated sweep only simulates what is missing (disable
// with -no-cache). -assert-cached exits non-zero if any simulation had to
// execute — CI uses it to prove a warm cache answers an entire sweep from
// disk.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"fasttrack/internal/cliflags"
	"fasttrack/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	run := flag.String("run", "all", "experiment id to run, or 'all'")
	quick := flag.Bool("quick", false, "use the reduced-scale sweep")
	seed := flag.Uint64("seed", 1, "random seed for all workloads")
	sweep := cliflags.RegisterSweep(flag.CommandLine)
	mon := cliflags.RegisterMonitor(flag.CommandLine)
	logf := cliflags.RegisterLogging(flag.CommandLine, "warn")
	progress := flag.Bool("progress", false, "live job progress/ETA on stderr")
	assertCached := flag.Bool("assert-cached", false, "exit 1 if any simulation executed (warm-cache check)")
	flag.Parse()

	logger, err := logf.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftexp:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *list {
		for _, e := range experiments.AllWithExtensions() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	sc := experiments.FullScale()
	if *quick {
		sc = experiments.QuickScale()
	}
	sc.Seed = *seed

	orch, err := sweep.Orchestrator()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftexp:", err)
		os.Exit(1)
	}
	orch.Log = logger
	if *progress {
		orch.Progress = os.Stderr
	}
	ops, err := cliflags.BuildOps(nil, mon, 0, 0, orch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftexp:", err)
		os.Exit(1)
	}
	ops.Log = logger
	sc.Orch = orch

	var todo []experiments.Experiment
	switch *run {
	case "all":
		todo = experiments.AllWithExtensions()
	case "paper":
		todo = experiments.All()
	default:
		e, err := experiments.ByID(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		todo = []experiments.Experiment{e}
	}

	for _, e := range todo {
		start := time.Now()
		if err := e.Run(os.Stdout, sc); err != nil {
			fmt.Fprintf(os.Stderr, "ftexp: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if err := ops.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "ftexp: monitor:", err)
		os.Exit(1)
	}
	executed, hits := orch.Stats()
	fmt.Printf("%d simulated, %d from cache\n", executed, hits)
	if *assertCached && executed > 0 {
		fmt.Fprintf(os.Stderr, "ftexp: -assert-cached: %d simulations executed (cache was cold)\n", executed)
		os.Exit(1)
	}
}
