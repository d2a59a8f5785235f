package experiments

// Extension experiments beyond the paper's figures: ablations of the design
// choices DESIGN.md calls out (router variant, express pipelining per the
// §VII Hyperflex discussion, zero-load analysis, latency fairness). They
// are registered with ext- identifiers and run by ftexp like any figure.

import (
	"context"
	"fmt"
	"io"

	"fasttrack/internal/analysis"
	"fasttrack/internal/buffered"
	"fasttrack/internal/core"
	"fasttrack/internal/fpga"
	"fasttrack/internal/message"
	"fasttrack/internal/runner"
	"fasttrack/internal/sim"
	"fasttrack/internal/stats"
	"fasttrack/internal/traffic"
)

// VariantPoint compares the two router microarchitectures at one rate.
type VariantPoint struct {
	Variant       string
	InjectionRate float64
	SustainedRate float64
	AvgLatency    float64
	LUTs          int
}

// ExtVariants measures the cost/performance gap between the Full and Inject
// routers on an 8×8 FT(64,2,1) under RANDOM traffic.
var ExtVariants = &Figure[VariantPoint]{
	ID: "ext-variants", Title: "Ablation: FT(Full) vs FTlite(Inject) router microarchitecture",
	Heading: "FT(Full) vs FTlite(Inject), 64-PE RANDOM traffic",
	Jobs: func(sc Scale) []runner.SyntheticJob {
		ft := core.FastTrack(sc.capN(8), 2, 1)
		return sc.sweep(random, sc.Rates, ft.WithVariant(core.VariantFull), ft.WithVariant(core.VariantInject))
	},
	Reduce: each(func(j runner.SyntheticJob, res sim.Result) (VariantPoint, error) {
		spec, err := j.Cfg.Spec()
		if err != nil {
			return VariantPoint{}, err
		}
		luts, _ := spec.Resources()
		return VariantPoint{
			Variant: j.Cfg.Variant.String(), InjectionRate: j.Opts.Rate,
			SustainedRate: res.SustainedRate, AvgLatency: res.AvgLatency,
			LUTs: luts,
		}, nil
	}),
	Columns: []string{"Variant", "LUTs", "InjRate", "Sustained", "AvgLatency"},
	Row: func(p VariantPoint) []any {
		return []any{p.Variant, p.LUTs, fmt.Sprintf("%.2f", p.InjectionRate),
			fmt.Sprintf("%.4f", p.SustainedRate), fmt.Sprintf("%.1f", p.AvgLatency)}
	},
}

// PipelinePoint is one express-pipelining depth sample.
type PipelinePoint struct {
	Stages         int
	ClockMHz       float64
	SustainedRate  float64
	AvgLatencyCyc  float64
	AvgLatencyNS   float64
	ThroughputMPPS float64
}

// ExtPipeline sweeps express pipeline depth on an FT(64,4,1) — the
// configuration whose long express wires limit the clock — quantifying the
// §VII tradeoff: pipelining restores frequency but adds cycles per express
// hop.
var ExtPipeline = &Figure[PipelinePoint]{
	ID: "ext-pipeline", Title: "Ablation: Hyperflex-style express link pipelining (paper §VII)",
	Heading: "Express link pipelining on FT(64,4,1) @128b, RANDOM saturation",
	Jobs: func(sc Scale) []runner.SyntheticJob {
		var cfgs []core.Config
		for stages := 0; stages <= 3; stages++ {
			cfgs = append(cfgs, core.FastTrack(sc.capN(8), 4, 1).WithPipeline(stages).WithWidth(128))
		}
		return sc.sweep(random, saturated, cfgs...)
	},
	Reduce: each(func(j runner.SyntheticJob, res sim.Result) (PipelinePoint, error) {
		spec, err := j.Cfg.Spec()
		if err != nil {
			return PipelinePoint{}, err
		}
		mhz := spec.ClockMHz(core.Virtex7())
		return PipelinePoint{
			Stages:         j.Cfg.ExpressPipeline,
			ClockMHz:       mhz,
			SustainedRate:  res.SustainedRate,
			AvgLatencyCyc:  res.AvgLatency,
			AvgLatencyNS:   res.AvgLatency / mhz * 1000,
			ThroughputMPPS: res.SustainedRate * float64(j.Cfg.N*j.Cfg.N) * mhz,
		}, nil
	}),
	Columns: []string{"Stages", "MHz", "Sustained", "AvgLat(cyc)", "AvgLat(ns)", "Mpkt/s"},
	Row: func(p PipelinePoint) []any {
		return []any{p.Stages, fmt.Sprintf("%.0f", p.ClockMHz), fmt.Sprintf("%.4f", p.SustainedRate),
			fmt.Sprintf("%.1f", p.AvgLatencyCyc), fmt.Sprintf("%.1f", p.AvgLatencyNS), fmt.Sprintf("%.0f", p.ThroughputMPPS)}
	},
}

// ExtZeroLoad computes exact zero-load latency profiles over all PE pairs,
// rendered with the provable Hoplite in-flight bound.
var ExtZeroLoad = &Figure[analysis.ZeroLoad]{
	ID: "ext-zeroload", Title: "Zero-load latency profile and provable Hoplite bounds",
	Data: func(sc Scale) ([]analysis.ZeroLoad, error) {
		n := sc.capN(8)
		var zls []analysis.ZeroLoad
		for _, cfg := range []core.Config{
			core.Hoplite(n),
			core.FastTrack(n, 2, 2),
			core.FastTrack(n, 2, 1),
			core.FastTrack(n, 2, 1).WithVariant(core.VariantInject),
		} {
			zl, _, err := runner.Do(context.Background(), sc.orch(), runner.RawKey("zeroload", runner.ConfigKey(cfg)),
				func() (analysis.ZeroLoad, error) { return analysis.ZeroLoadProfile(cfg) })
			if err != nil {
				return nil, err
			}
			zls = append(zls, zl)
		}
		return zls, nil
	},
	// The heading names the scale's width, so Render prints it.
	Render: func(w io.Writer, sc Scale, zls []analysis.ZeroLoad) error {
		n := sc.capN(8)
		fmt.Fprintf(w, "== ext-zeroload: Zero-load latency over all PE pairs, %dx%d ==\n", n, n)
		t := newTable(w, "Config", "MeanLat", "MaxLat", "ExpressShare")
		for _, zl := range zls {
			t.row(zl.Config, fmt.Sprintf("%.2f", zl.Mean), zl.Max, fmt.Sprintf("%.0f%%", 100*zl.ExpressShare))
		}
		if err := t.flush(); err != nil {
			return err
		}
		fmt.Fprintf(w, "provable Hoplite in-flight bound (worst pair): %d cycles\n", analysis.HopliteNetworkBound(n))
		return nil
	},
}

// FairnessPoint summarizes per-source latency dispersion for one config.
type FairnessPoint struct {
	Config      string
	JainIndex   float64
	MeanOfMeans float64
	WorstMean   float64
}

// ExtFairness measures how evenly saturated RANDOM latency is distributed
// across source PEs. Deflection NoCs favour some positions; express links
// shorten the unlucky paths and raise the Jain index.
var ExtFairness = &Figure[FairnessPoint]{
	ID: "ext-fairness", Title: "Per-source latency fairness (Jain index) under saturation",
	Heading: "Per-source latency fairness, 64-PE RANDOM at saturation",
	Jobs: func(sc Scale) []runner.SyntheticJob {
		return sc.sweep(random, saturated, fig11Configs(sc.capN(8))...)
	},
	Reduce: each(func(j runner.SyntheticJob, res sim.Result) (FairnessPoint, error) {
		means := make([]float64, 0, len(res.PerSource))
		var sum, worst float64
		for i := range res.PerSource {
			if res.PerSource[i].Count() == 0 {
				continue
			}
			m := res.PerSource[i].Mean()
			means = append(means, m)
			sum += m
			worst = max(worst, m)
		}
		pt := FairnessPoint{Config: j.Cfg.String(), JainIndex: stats.JainIndex(means), WorstMean: worst}
		if len(means) > 0 {
			pt.MeanOfMeans = sum / float64(len(means))
		}
		return pt, nil
	}),
	Columns: []string{"Config", "JainIndex", "MeanLat", "WorstSourceMean"},
	Row: func(p FairnessPoint) []any {
		return []any{p.Config, fmt.Sprintf("%.4f", p.JainIndex), fmt.Sprintf("%.1f", p.MeanOfMeans), fmt.Sprintf("%.1f", p.WorstMean)}
	},
}

// CachelinePoint measures 512-bit cacheline transfer efficiency at one
// datapath width.
type CachelinePoint struct {
	Config       string
	WidthBits    int
	FlitsPerLine int
	ClockMHz     float64
	LinesPerSec  float64 // millions of cachelines per second, network-wide
	AvgLatencyNS float64 // message completion latency
	Routable     bool
}

// ExtCacheline transfers 512-bit cachelines over a 4×4 FT(16,2,1) and
// Hoplite at datapath widths from 64 to 1024 bits. Wide datapaths move a
// line per packet but clock lower and may not route; narrow ones serialize.
var ExtCacheline = &Figure[CachelinePoint]{
	ID: "ext-cacheline", Title: "Cacheline serialization vs datapath width (§VI-B)",
	Heading: "512-bit cacheline transfers on a 4x4 NoC vs datapath width",
	Data:    cachelinePoints,
	Columns: []string{"Config", "Width", "Flits/line", "MHz", "Mlines/s", "AvgLat(ns)"},
	Row: func(p CachelinePoint) []any {
		if !p.Routable {
			return []any{p.Config, p.WidthBits, p.FlitsPerLine, "NA", "NA", "NA"}
		}
		return []any{p.Config, p.WidthBits, p.FlitsPerLine, fmt.Sprintf("%.0f", p.ClockMHz),
			fmt.Sprintf("%.1f", p.LinesPerSec), fmt.Sprintf("%.0f", p.AvgLatencyNS)}
	},
}

func cachelinePoints(sc Scale) ([]CachelinePoint, error) {
	dev := core.Virtex7()
	const n, lineBits = 4, 512
	var pts []CachelinePoint
	for _, cfg := range []core.Config{core.Hoplite(n), core.FastTrack(n, 2, 1)} {
		for _, width := range []int{64, 128, 256, 512, 1024} {
			wc := cfg.WithWidth(width)
			spec, err := wc.Spec()
			if err != nil {
				return nil, err
			}
			pt := CachelinePoint{
				Config: wc.String(), WidthBits: width,
				FlitsPerLine: (lineBits + width - 1) / width,
				Routable:     spec.Routable(dev),
			}
			if pt.Routable {
				pt.ClockMHz = spec.ClockMHz(dev)
				cr, err := runCachelines(wc, lineBits, width, sc)
				if err != nil {
					return nil, err
				}
				seconds := float64(cr.Res.Cycles) / (pt.ClockMHz * 1e6)
				pt.LinesPerSec = float64(cr.Lines) / seconds / 1e6
				pt.AvgLatencyNS = cr.LatMean / pt.ClockMHz * 1000
			}
			pts = append(pts, pt)
		}
	}
	return pts, nil
}

// cachelineRun is the cacheable summary of one cacheline-stream simulation:
// the message.Stream itself does not serialize, so the derived message
// statistics ride alongside the engine result.
type cachelineRun struct {
	Res     sim.Result
	Lines   int64
	LatMean float64
}

func runCachelines(cfg core.Config, lineBits, width int, sc Scale) (cachelineRun, error) {
	key := runner.RawKey("cacheline", runner.ConfigKey(cfg), lineBits, width, sc.Quota, sc.Seed)
	run, _, err := runner.Do(context.Background(), sc.orch(), key, func() (cachelineRun, error) {
		net, err := cfg.Build()
		if err != nil {
			return cachelineRun{}, err
		}
		ms, err := message.NewStream(net.Width(), net.Height(), lineBits, width, 1.0, sc.Quota, sc.Seed)
		if err != nil {
			return cachelineRun{}, err
		}
		res, err := sim.Run(net, ms, sim.Options{})
		if err != nil {
			return cachelineRun{}, err
		}
		return cachelineRun{
			Res: res, Lines: ms.MessagesDelivered(), LatMean: ms.MessageLatency().Mean(),
		}, nil
	})
	return run, err
}

// BufferedPoint compares router families on the Fig 1 axes, with the
// buffered design simulated rather than quoted from the literature.
type BufferedPoint struct {
	Config        string
	LUTsPerRouter int
	ClockMHz      float64
	SustainedRate float64 // pkt/cycle/PE at saturation
	PktPerNS      float64 // delivered network throughput in packets/ns
	AvgLatencyNS  float64
}

// ExtBuffered runs saturated RANDOM traffic through the buffered mesh,
// baseline Hoplite and FT(64,2,1) at 32-bit width, converting cycles to
// wall-clock with each design's modeled frequency — Fig 1's area-bandwidth
// tradeoff reproduced end-to-end from simulation.
var ExtBuffered = &Figure[BufferedPoint]{
	ID: "ext-buffered", Title: "Buffered mesh vs bufferless NoCs (simulated Fig 1)",
	Heading: "Buffered mesh vs bufferless NoCs, 32b, RANDOM saturation (simulated Fig 1)",
	Data:    bufferedPoints,
	Columns: []string{"Config", "LUTs/router", "MHz", "pkt/cyc/PE", "pkt/ns", "AvgLat(ns)"},
	Row: func(p BufferedPoint) []any {
		return []any{p.Config, p.LUTsPerRouter, fmt.Sprintf("%.0f", p.ClockMHz),
			fmt.Sprintf("%.4f", p.SustainedRate), fmt.Sprintf("%.2f", p.PktPerNS), fmt.Sprintf("%.0f", p.AvgLatencyNS)}
	},
}

func bufferedPoints(sc Scale) ([]BufferedPoint, error) {
	const width = 32
	dev, n := core.Virtex7(), sc.capN(8)
	type design struct {
		name  string
		build func() (core.Network, error)
		luts  int // per router
		mhz   float64
	}
	bl, _ := fpga.BufferedRouterCost(width, 4)
	designs := []design{{"BufferedMesh(d=4)", func() (core.Network, error) {
		return buffered.New(n, n, buffered.Config{Depth: 4})
	}, bl, dev.BufferedMeshClockMHz(n, width)}}
	// A design's name is part of its cache key, so FT(64,2,1) keeps its
	// name when the scale caps n below 8.
	for _, d := range []struct {
		name string
		cfg  core.Config
	}{{"Hoplite", core.Hoplite(n)}, {"FT(64,2,1)", core.FastTrack(n, 2, 1)}} {
		cfg := d.cfg.WithWidth(width)
		spec, err := cfg.Spec()
		if err != nil {
			return nil, err
		}
		luts, _ := spec.Resources()
		designs = append(designs, design{d.name, cfg.Build, luts / (n * n), spec.ClockMHz(dev)})
	}
	var pts []BufferedPoint
	for _, d := range designs {
		key := runner.RawKey("extbuffered", d.name, n, sc.Quota, sc.Seed)
		res, _, err := runner.Do(context.Background(), sc.orch(), key, func() (sim.Result, error) {
			net, err := d.build()
			if err != nil {
				return sim.Result{}, err
			}
			wl := traffic.NewSynthetic(net.Width(), net.Height(), traffic.Random{}, 1.0, sc.Quota, sc.Seed)
			return sim.Run(net, wl, sim.Options{})
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		pts = append(pts, BufferedPoint{
			Config:        d.name,
			LUTsPerRouter: d.luts,
			ClockMHz:      d.mhz,
			SustainedRate: res.SustainedRate,
			PktPerNS:      res.SustainedRate * float64(n*n) * d.mhz / 1000,
			AvgLatencyNS:  res.AvgLatency / d.mhz * 1000,
		})
	}
	return pts, nil
}
