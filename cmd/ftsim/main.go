// Command ftsim runs one NoC configuration against a synthetic workload
// and prints the paper's measurements: sustained rate, latency statistics,
// link usage, deflections, and the FPGA model's cost/frequency/power view.
//
// Examples:
//
//	ftsim -noc ft -n 8 -d 2 -r 1 -pattern RANDOM -rate 0.5
//	ftsim -noc hoplite -n 16 -pattern TRANSPOSE -rate 1.0
//	ftsim -noc multi -channels 3 -n 8 -pattern RANDOM -rate 1.0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"fasttrack/internal/cliflags"
	"fasttrack/internal/core"
	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
	"fasttrack/internal/stats"
	"fasttrack/internal/viz"
)

func main() {
	topo := cliflags.RegisterTopology(flag.CommandLine, cliflags.TopologyDefaults())
	work := cliflags.RegisterWorkload(flag.CommandLine, cliflags.WorkloadDefaults())
	flt := cliflags.RegisterFaults(flag.CommandLine)
	telem := cliflags.RegisterTelemetry(flag.CommandLine)
	mon := cliflags.RegisterMonitor(flag.CommandLine)
	logf := cliflags.RegisterLogging(flag.CommandLine, "warn")
	heatmap := flag.Bool("heatmap", false, "render a per-source mean-latency heatmap")
	watchdog := flag.Int64("watchdog", 0, "starvation watchdog: max in-flight packet age in cycles (0 = off)")
	check := flag.Bool("check", false, "audit packet conservation and delivery identity every cycle")
	flag.Parse()

	cfg, err := topo.Config()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftsim: %v\n", err)
		os.Exit(2)
	}
	logger, err := logf.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftsim: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	opts := core.SyntheticOptions{
		CheckConservation: *check,
		MaxPacketAge:      *watchdog,
	}
	work.Apply(&opts)
	flt.Apply(&opts)
	ops, err := cliflags.BuildOps(telem, mon, topo.N, topo.N, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftsim: %v\n", err)
		os.Exit(1)
	}
	ops.Log = logger
	opts.Observer = ops.Observer

	ctx := context.Background()
	res, err := core.RunSynthetic(ctx, cfg, opts)
	// A tripped watchdog or invariant check is exactly what the flight
	// recorder exists for: dump the forensic report before exiting.
	var inv *sim.InvariantError
	if errors.As(err, &inv) {
		ops.DumpFlight(ctx, 10)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftsim: %v\n", err)
	}
	// The stack closes on the error path too: a failed run is the one its
	// trace and reports exist for.
	if cerr := ops.Close(); cerr != nil {
		fmt.Fprintf(os.Stderr, "ftsim: telemetry: %v\n", cerr)
		os.Exit(1)
	}
	if err != nil {
		os.Exit(1)
	}

	fmt.Printf("config          %s (%dx%d, %db)\n", cfg, topo.N, topo.N, topo.Width)
	fmt.Printf("workload        %s @ %.2f inj rate, %d pkts/PE, seed %d\n", work.Pattern, work.Rate, work.PacketsPerPE, work.Seed)
	fmt.Printf("cycles          %d\n", res.Cycles)
	fmt.Printf("delivered       %d\n", res.Delivered)
	fmt.Printf("sustained rate  %.4f pkt/cycle/PE\n", res.SustainedRate)
	fmt.Printf("latency         avg %.1f  p50 %d  p99 %d  worst %d cycles\n",
		res.AvgLatency, res.P50, res.P99, res.WorstLatency)
	fmt.Printf("link usage      %d short hops, %d express hops\n",
		res.Counters.ShortTraversals, res.Counters.ExpressTraversals)
	fmt.Printf("deflections     %d misroutes, %d express denials, %d injection stalls\n",
		res.Counters.TotalDeflections(), res.Counters.TotalExpressDenied(), res.Counters.InjectionStalls)
	if opts.Faults != nil {
		f := res.Faults
		fmt.Printf("faults          %d dropped, %d misrouted (%d misdelivered), %d inject-blocked — %d packets lost\n",
			f.Dropped, f.Misrouted, f.Misdelivered, f.InjectBlocked, f.Lost())
	}
	if opts.Retry != nil {
		r := res.Recovery
		fmt.Printf("resilience      %s eventual delivery (%d/%d), %d retries, %d recovered, %d duplicates, %d abandoned\n",
			stats.Percent(r.Completed, r.Sent), r.Completed, r.Sent,
			r.Retries, r.Recovered, r.Duplicates, r.Abandoned)
	}
	for p := noc.Port(0); p < noc.NumPorts; p++ {
		m := res.Counters.MisroutesByInput[p]
		e := res.Counters.ExpressDeniedByInput[p]
		if m > 0 || e > 0 {
			fmt.Printf("  %-5s misroutes %-10d express-denied %d\n", p, m, e)
		}
	}

	if *heatmap {
		vals := make([]float64, len(res.PerSource))
		for i := range res.PerSource {
			if res.PerSource[i].Count() == 0 {
				vals[i] = -1
			} else {
				vals[i] = res.PerSource[i].Mean()
			}
		}
		fmt.Println()
		if err := viz.Heatmap(os.Stdout, "mean latency by source PE", topo.N, topo.N, vals); err != nil {
			fmt.Fprintf(os.Stderr, "ftsim: %v\n", err)
		}
	}

	spec, err := cfg.Spec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftsim: %v\n", err)
		os.Exit(1)
	}
	dev := core.Virtex7()
	luts, ffs := spec.Resources()
	mhz := spec.ClockMHz(dev)
	fmt.Printf("\nFPGA model (%s)\n", dev.Name)
	if mhz == 0 {
		fmt.Printf("  does not route at %db (utilization %.2f)\n", topo.Width, spec.Utilization(dev))
		return
	}
	fmt.Printf("  resources     %d LUTs, %d FFs (util %.0f%% of channel tracks)\n",
		luts, ffs, 100*spec.Utilization(dev))
	fmt.Printf("  clock         %.0f MHz\n", mhz)
	fmt.Printf("  power         %.1f W (dynamic, saturated)\n", spec.PowerW(dev))
	fmt.Printf("  throughput    %.1f Mpkt/s (%.3f pkt/ns peak switch BW)\n",
		res.SustainedRate*float64(topo.N*topo.N)*mhz, spec.PeakBandwidth(dev))
	fmt.Printf("  energy        %.4f J for this workload\n", spec.EnergyJ(dev, res.Cycles))
}
