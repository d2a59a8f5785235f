// Command ftdse explores the NoC design space for a system size and prints
// every evaluated point plus the throughput-vs-LUTs Pareto frontier —
// the paper's "judiciously choose D and R" methodology as a tool.
//
// Simulations fan out across -workers and consult the content-addressed run
// cache under -cache-dir first (disable with -no-cache), so re-exploring a
// design space — e.g. after adding -variants — reruns only the new points.
//
// Example:
//
//	ftdse -n 8 -width 256 -pattern RANDOM -rate 1.0 -variants
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"text/tabwriter"

	"fasttrack/internal/cliflags"
	"fasttrack/internal/dse"
)

func main() {
	n := flag.Int("n", 8, "torus width (NoC is NxN)")
	width := flag.Int("width", 256, "datapath width in bits")
	work := cliflags.RegisterWorkload(flag.CommandLine,
		cliflags.Workload{Pattern: "RANDOM", Rate: 1.0, PacketsPerPE: 300, Seed: 1})
	variants := flag.Bool("variants", false, "also evaluate FTlite(Inject) routers")
	channels := flag.Int("channels", 3, "max multi-channel Hoplite replication")
	sweep := cliflags.RegisterSweep(flag.CommandLine)
	mon := cliflags.RegisterMonitor(flag.CommandLine)
	logf := cliflags.RegisterLogging(flag.CommandLine, "warn")
	flag.Parse()

	logger, err := logf.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftdse:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	orch, err := sweep.Orchestrator()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftdse:", err)
		os.Exit(1)
	}
	orch.Log = logger
	ops, err := cliflags.BuildOps(nil, mon, 0, 0, orch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftdse:", err)
		os.Exit(1)
	}
	ops.Log = logger

	pts, stats, err := dse.Explore(context.Background(), dse.Options{
		N: *n, WidthBits: *width,
		Pattern: work.Pattern, Rate: work.Rate, PacketsPerPE: work.PacketsPerPE,
		MaxChannels: *channels, Variants: *variants, Seed: work.Seed,
		Orch: orch,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftdse:", err)
		os.Exit(1)
	}
	if err := ops.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "ftdse: monitor:", err)
		os.Exit(1)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "design\tLUTs\tFFs\twires\tMHz\tW\tsustained\tMpkt/s\tlat(ns)\tnJ/pkt\tpareto")
	for _, p := range pts {
		if !p.Routable {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%dx\tNA\tNA\tNA\tNA\tNA\tNA\t\n",
				p.Name, p.LUTs, p.FFs, p.WireFactor)
			continue
		}
		mark := ""
		if p.Pareto {
			mark = "*"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%dx\t%.0f\t%.1f\t%.4f\t%.0f\t%.0f\t%.2f\t%s\n",
			p.Name, p.LUTs, p.FFs, p.WireFactor, p.ClockMHz, p.PowerW,
			p.SustainedRate, p.ThroughputMPPS, p.AvgLatencyNS, p.EnergyPerPacketNJ, mark)
	}
	tw.Flush()

	fmt.Println("\nPareto frontier (max throughput / min LUTs):")
	for _, p := range dse.Frontier(pts) {
		fmt.Printf("  %-18s %8d LUTs  %8.0f Mpkt/s\n", p.Name, p.LUTs, p.ThroughputMPPS)
	}
	fmt.Printf("\n%d simulated, %d from cache\n", stats.Simulated, stats.Cached)
}
