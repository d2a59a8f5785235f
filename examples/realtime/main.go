// Real-time case study (HopliteRT lineage, paper §II/§IV-D): offer every
// client a load below Hoplite's saturation rate, then compare observed
// worst-case latency against the provable Hoplite in-flight bound and
// against FastTrack's measured tail. Below saturation every design runs
// uncongested; express links then shrink both the average and the tail.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"fasttrack/internal/analysis"
	"fasttrack/internal/core"
	"fasttrack/internal/viz"
)

func main() {
	const n = 8
	const rate = 0.08 // below Hoplite's ~0.11 saturation

	fmt.Printf("provable Hoplite in-flight bound on %dx%d (worst pair): %d cycles\n\n",
		n, n, analysis.HopliteNetworkBound(n))

	configs := []core.Config{
		core.Hoplite(n),
		core.FastTrack(n, 2, 2),
		core.FastTrack(n, 2, 1),
	}
	fmt.Printf("%-12s %12s %10s %10s %12s\n",
		"config", "zeroload", "avg", "p99", "worst (obs)")
	var latencies [][]float64
	var labels []string
	for _, cfg := range configs {
		zl, err := analysis.ZeroLoadProfile(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.RunSynthetic(context.Background(), cfg, core.SyntheticOptions{
			Pattern:      "RANDOM",
			Rate:         rate,
			PacketsPerPE: 500,
			Seed:         11,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %8.2f avg %10.1f %10d %12d\n",
			cfg, zl.Mean, res.AvgLatency, res.P99, res.WorstLatency)

		vals := make([]float64, len(res.PerSource))
		for i := range res.PerSource {
			vals[i] = res.PerSource[i].Mean()
		}
		latencies = append(latencies, vals)
		labels = append(labels, cfg.String())
	}

	fmt.Printf("\nat %.2f pkt/cycle/PE every design runs uncongested (latency\n", rate)
	fmt.Println("includes source queueing; the 78-cycle figure bounds the in-flight part).")
	fmt.Println("FastTrack cuts both the mean and the worst case. Source-latency maps:")
	for i, vals := range latencies {
		fmt.Println()
		if err := viz.Heatmap(os.Stdout, labels[i], n, n, vals); err != nil {
			log.Fatal(err)
		}
	}
}
