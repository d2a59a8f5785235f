// Package fasttrack_bench regenerates every table and figure of the paper
// as a testing.B benchmark. Each benchmark runs the corresponding
// experiment at a reduced scale and reports the figure's headline numbers
// as custom metrics, so `go test -bench=. -benchmem` doubles as a
// reproduction summary. Use cmd/ftexp for the full paper-scale sweeps.
package fasttrack_bench

import (
	"math"
	"strings"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/experiments"
	"fasttrack/internal/fpga"
	"fasttrack/internal/noc"
	"fasttrack/internal/sim"
	"fasttrack/internal/telemetry"
	"fasttrack/internal/traffic"
	"fasttrack/internal/xrand"
)

// benchScale sizes the sweeps for benchmark iterations.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Quota:           200,
		Rates:           []float64{0.05, 0.3, 1.0},
		MaxN:            8,
		TraceBenchmarks: 2,
		Seed:            1,
	}
}

// figureRows regenerates f's rows b.N times and returns the last ones.
func figureRows[R any](b *testing.B, f *experiments.Figure[R], sc experiments.Scale) []R {
	b.Helper()
	var rows []R
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = f.Rows(sc); err != nil {
			b.Fatal(err)
		}
	}
	return rows
}

func BenchmarkTable1RouterCosts(b *testing.B) {
	rows := figureRows(b, experiments.Table1, experiments.Scale{})
	for _, r := range rows {
		if r.Modeled && strings.HasPrefix(r.Name, "Hoplite") {
			b.ReportMetric(float64(r.LUTs), "hoplite-LUTs/32b")
		}
		if r.Modeled && strings.Contains(r.Name, "FT(Full)") {
			b.ReportMetric(float64(r.LUTs), "ft-full-LUTs/32b")
		}
	}
}

func BenchmarkFig1AreaBandwidth(b *testing.B) {
	pts := figureRows(b, experiments.Fig1, experiments.Scale{})
	for _, p := range pts {
		if p.Name == "FastTrack" {
			b.ReportMetric(p.BandwidthPktNS, "ft-pkt/ns")
		}
	}
}

func BenchmarkFig4VirtualExpress(b *testing.B) {
	pts := figureRows(b, experiments.Fig4, experiments.Scale{})
	for _, p := range pts {
		if p.Distance == 256 && p.Hops == 0 {
			b.ReportMetric(p.MHz, "d256-h0-MHz")
		}
	}
}

func BenchmarkFig6PhysicalExpress(b *testing.B) {
	pts := figureRows(b, experiments.Fig6, experiments.Scale{})
	for _, p := range pts {
		if p.Distance == 8 && p.Hops == 8 {
			b.ReportMetric(p.MHz, "bypass8x8-MHz")
		}
	}
}

func BenchmarkTable2Resources(b *testing.B) {
	rows := figureRows(b, experiments.Table2, experiments.Scale{})
	for _, r := range rows {
		if r.Config == "FT(64,2,1)" {
			b.ReportMetric(float64(r.LUTs), "ft221-LUTs")
			b.ReportMetric(r.MHz, "ft221-MHz")
		}
	}
}

func BenchmarkFig10Routability(b *testing.B) {
	cells := figureRows(b, experiments.Fig10, experiments.Scale{})
	feasible := 0
	for _, c := range cells {
		if c.MHz > 0 {
			feasible++
		}
	}
	b.ReportMetric(float64(feasible), "feasible-cells")
}

// syntheticRatio runs a sweep and reports the FT(64,2,1)/Hoplite sustained
// rate ratio at saturation for the given pattern.
func syntheticRatio(b *testing.B, pattern string) {
	b.Helper()
	sc := benchScale()
	var ratio float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig11.Rows(sc)
		if err != nil {
			b.Fatal(err)
		}
		var ft, hop float64
		for _, p := range pts {
			if p.Pattern == pattern && p.InjectionRate == 1.0 {
				switch p.Config {
				case "FT(64,2,1)":
					ft = p.SustainedRate
				case "Hoplite":
					hop = p.SustainedRate
				}
			}
		}
		ratio = ft / hop
	}
	b.ReportMetric(ratio, pattern+"-speedup")
}

func BenchmarkFig11SustainedRate(b *testing.B) {
	syntheticRatio(b, "RANDOM")
}

func BenchmarkFig12AvgLatency(b *testing.B) {
	sc := benchScale()
	var ft, hop float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig11.Rows(sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Pattern == "RANDOM" && p.InjectionRate == 1.0 {
				switch p.Config {
				case "FT(64,2,1)":
					ft = p.AvgLatency
				case "Hoplite":
					hop = p.AvgLatency
				}
			}
		}
	}
	b.ReportMetric(hop/ft, "latency-reduction")
}

func BenchmarkFig13IsoWiring(b *testing.B) {
	sc := benchScale()
	var ft, h3 float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig13.Rows(sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Pattern == "RANDOM/64PE" && p.InjectionRate == 1.0 {
				switch p.Config {
				case "FT(64,2,1)":
					ft = p.SustainedRate
				case "Hoplite-3x":
					h3 = p.SustainedRate
				}
			}
		}
	}
	b.ReportMetric(ft/h3, "vs-hoplite3x")
}

func BenchmarkFig14CostAware(b *testing.B) {
	sc := benchScale()
	pts := figureRows(b, experiments.Fig14, sc)
	for _, p := range pts {
		if p.Config == "FT(64,2,1)" {
			b.ReportMetric(p.ThroughputMPPS, "ft221-Mpkt/s")
		}
	}
}

// traceSuite reports the geometric-mean speedup of a Fig 15 suite.
func traceSuite(b *testing.B, suite *experiments.Figure[experiments.SpeedupPoint]) {
	b.Helper()
	pts := figureRows(b, suite, benchScale())
	prod, n := 1.0, 0
	var best float64
	for _, p := range pts {
		prod *= p.Speedup
		n++
		if p.Speedup > best {
			best = p.Speedup
		}
	}
	if n > 0 {
		b.ReportMetric(math.Pow(prod, 1/float64(n)), "geomean-speedup")
		b.ReportMetric(best, "best-speedup")
	}
}

func BenchmarkFig15aSpMV(b *testing.B) {
	traceSuite(b, experiments.Fig15a)
}

func BenchmarkFig15bGraph(b *testing.B) {
	traceSuite(b, experiments.Fig15b)
}

func BenchmarkFig15cDataflow(b *testing.B) {
	traceSuite(b, experiments.Fig15c)
}

func BenchmarkFig15dOverlay(b *testing.B) {
	traceSuite(b, experiments.Fig15d)
}

func BenchmarkFig16LatencyHistogram(b *testing.B) {
	sc := benchScale()
	res := figureRows(b, experiments.Fig16, sc)
	worst := map[string]int64{}
	for _, r := range res {
		worst[r.Config] = r.WorstLatency
	}
	if worst["FT(64,2,1)"] > 0 {
		b.ReportMetric(float64(worst["Hoplite"])/float64(worst["FT(64,2,1)"]), "worstcase-reduction")
	}
}

func BenchmarkFig17VaryD(b *testing.B) {
	sc := benchScale()
	pts := figureRows(b, experiments.Fig17, sc)
	for _, p := range pts {
		if p.PEs == 64 && p.D == 2 && !p.RExtreme {
			b.ReportMetric(p.SustainedRate, "d2-rate")
		}
		if p.PEs == 64 && p.D == 4 && !p.RExtreme {
			b.ReportMetric(p.SustainedRate, "d4-rate")
		}
	}
}

func BenchmarkFig18aLinkUsage(b *testing.B) {
	sc := benchScale()
	res := figureRows(b, experiments.Fig18, sc)
	for _, r := range res {
		if r.Config == "FT(64,2,1)" {
			b.ReportMetric(float64(r.ExpressHops), "express-hops")
		}
	}
}

func BenchmarkFig18bDeflections(b *testing.B) {
	sc := benchScale()
	res := figureRows(b, experiments.Fig18, sc)
	total := func(r experiments.Fig18Result) float64 {
		var t int64
		for _, v := range r.Misroutes {
			t += v
		}
		return float64(t)
	}
	var hop, ft float64
	for _, r := range res {
		switch r.Config {
		case "Hoplite":
			hop = total(r)
		case "FT(64,2,1)":
			ft = total(r)
		}
	}
	if ft > 0 {
		b.ReportMetric(hop/ft, "misroute-reduction")
	}
}

func BenchmarkFig19Energy(b *testing.B) {
	sc := benchScale()
	pts := figureRows(b, experiments.Fig14, sc)
	var ftE, hopE float64
	for _, p := range pts {
		switch p.Config {
		case "FT(64,2,1)":
			ftE = p.EnergyJ
		case "Hoplite":
			hopE = p.EnergyJ
		}
	}
	if ftE > 0 {
		b.ReportMetric(hopE/ftE, "energy-advantage")
	}
}

// BenchmarkRouterStep measures one cycle of the FastTrack arbiter at
// saturation: FT(256,2,1) with a standing RANDOM offer at every PE, each
// refilled as soon as it is accepted (engineering metric, not a paper
// figure). `go test -run '^$' -bench RouterStep -cpu 1 .` is a quick local
// check of the per-cycle cost; a speed claim rests on the benchmark
// harness's fasttrack.step_ns_per_cycle.
func BenchmarkRouterStep(b *testing.B) {
	const n = 16
	net, err := core.FastTrack(n, 2, 1).Build()
	if err != nil {
		b.Fatal(err)
	}
	hold := net.(noc.Standing)
	rng := xrand.New(17)
	var id int64
	offer := func(pe int) {
		id++
		hold.Hold(pe, noc.Packet{ID: id, Src: noc.PECoord(pe, n), Dst: noc.PECoord(rng.Intn(n*n), n)})
	}
	for pe := 0; pe < n*n; pe++ {
		offer(pe)
	}
	step := func(now int64) {
		net.Step(now)
		for pe := 0; pe < n*n; pe++ {
			if net.Accepted(pe) {
				offer(pe)
			}
		}
	}
	const warm = 1000 // fill the fabric to its steady state first
	for now := int64(0); now < warm; now++ {
		step(now)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warm + int64(i))
	}
}

// simBench runs one full hoplite 16×16 RANDOM simulation per iteration with
// the given options (end to end, the engine's cost is wall_s on the
// benchmark's engine-sat and engine-idle workloads).
func simBench(b *testing.B, opts sim.Options, rate float64) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net, err := core.Hoplite(16).Build()
		if err != nil {
			b.Fatal(err)
		}
		wl := traffic.NewSynthetic(16, 16, traffic.Random{}, rate, 200, 17)
		b.StartTimer()
		if _, err := sim.Run(net, wl, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimLowRate(b *testing.B)    { simBench(b, sim.Options{}, 0.05) }
func BenchmarkSimSaturation(b *testing.B) { simBench(b, sim.Options{}, 1.0) }

// BenchmarkSimSaturationNopObserver is BenchmarkSimSaturation with a no-op
// telemetry observer attached; the pair bounds what wiring telemetry costs
// when it records nothing. Both runs walk the same accepted and changed PEs;
// the observed one adds an interface call per injection, hop, delivery and
// cycle, and re-reads each accepted packet with Pending to report it. On the
// 2-core reference box at -cpu 1 the observed run takes ≈ 1.18× the bare one
// (medians of 10 runs of 20 iterations: 30.9 ms against 26.2 ms); budget:
// ≤ 1.5×.
func BenchmarkSimSaturationNopObserver(b *testing.B) {
	simBench(b, sim.Options{Observer: telemetry.Base{}}, 1.0)
}

// BenchmarkWireModel measures the FPGA delay model.
func BenchmarkWireModel(b *testing.B) {
	dev := fpga.Virtex7_485T()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += dev.RouteDelay(1 + i%256)
	}
	_ = sink
}

// BenchmarkExtPipeline reports the Hyperflex ablation's headline: Mpkt/s
// with one express pipeline stage relative to none.
func BenchmarkExtPipeline(b *testing.B) {
	sc := benchScale()
	pts := figureRows(b, experiments.ExtPipeline, sc)
	if len(pts) >= 2 && pts[0].ThroughputMPPS > 0 {
		b.ReportMetric(pts[1].ThroughputMPPS/pts[0].ThroughputMPPS, "stage1-gain")
	}
}

// BenchmarkExtBuffered reports the simulated Fig 1 packets/ns ratio of
// FastTrack over the buffered mesh.
func BenchmarkExtBuffered(b *testing.B) {
	sc := benchScale()
	pts := figureRows(b, experiments.ExtBuffered, sc)
	var buf, ft float64
	for _, p := range pts {
		switch p.Config {
		case "BufferedMesh(d=4)":
			buf = p.PktPerNS
		case "FT(64,2,1)":
			ft = p.PktPerNS
		}
	}
	if buf > 0 {
		b.ReportMetric(ft/buf, "ft-vs-buffered")
	}
}
