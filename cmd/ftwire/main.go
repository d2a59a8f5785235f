// Command ftwire explores the FPGA wire-delay model behind FastTrack's
// design (§III of the paper): how fast a registered wire of a given length
// runs, how LUT hops destroy that speed (virtual express, Fig 4), and how
// a physical bypass wire preserves it (physical express, Fig 6).
//
// Examples:
//
//	ftwire                      # both characterization sweeps
//	ftwire -distance 128 -hops 2
//	ftwire -reach 250           # furthest bypass at 250 MHz
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"fasttrack/internal/cliflags"
	"fasttrack/internal/experiments"
	"fasttrack/internal/fpga"
)

func main() {
	distance := flag.Int("distance", 0, "evaluate one (distance, hops) point instead of the sweep")
	hops := flag.Int("hops", 0, "LUT hops / bypassed stages for -distance")
	reach := flag.Float64("reach", 0, "print the max bypass distance at this frequency (MHz)")
	logf := cliflags.RegisterLogging(flag.CommandLine, "warn")
	flag.Parse()

	logger, err := logf.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftwire:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	dev := fpga.Virtex7_485T()
	switch {
	case *reach > 0:
		fmt.Printf("max single-cycle bypass at %.0f MHz: %d SLICEs\n",
			*reach, dev.MaxExpressReach(*reach))
	case *distance > 0:
		fmt.Printf("device %s, distance %d SLICEs, %d hops\n", dev.Name, *distance, *hops)
		fmt.Printf("  route delay         %.2f ns\n", dev.RouteDelay(*distance))
		fmt.Printf("  virtual express     %.0f MHz (%.2f ns)\n",
			dev.VirtualExpressMHz(*distance, *hops), dev.VirtualExpressPath(*distance, *hops))
		fmt.Printf("  physical express    %.0f MHz (%.2f ns)\n",
			dev.PhysicalExpressMHz(*distance, *hops), dev.PhysicalExpressPath(*distance, *hops))
	default:
		sc := experiments.FullScale()
		if err := experiments.Fig4.Run(os.Stdout, sc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
		if err := experiments.Fig6.Run(os.Stdout, sc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
