package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// testScale is small enough for CI but big enough that the paper's
// qualitative claims are visible.
func testScale() Scale {
	return Scale{
		Quota:           300,
		Rates:           []float64{0.05, 0.3, 1.0},
		MaxN:            8,
		TraceBenchmarks: 3,
		Seed:            1,
	}
}

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{
		"table1", "fig1", "fig4", "fig6", "table2", "fig10",
		"fig11", "fig12", "fig13", "fig14",
		"fig15a", "fig15b", "fig15c", "fig15d",
		"fig16", "fig17", "fig18", "fig19",
	}
	got := map[string]bool{}
	for _, e := range All() {
		got[e.ID] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("registry missing %s", id)
		}
	}
	if _, err := ByID("fig11"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

// findRate picks one point from a sweep.
func findRate(pts []RatePoint, config, patternPrefix string, rate float64) RatePoint {
	for _, p := range pts {
		if p.Config == config && strings.HasPrefix(p.Pattern, patternPrefix) && p.InjectionRate == rate {
			return p
		}
	}
	return RatePoint{}
}

// TestFig11Shapes asserts the paper's headline synthetic results: at
// saturation FastTrack R=1 beats Hoplite by ≥2× on RANDOM, the
// depopulated NoC sits in between, and nobody wins below 10% injection.
func TestFig11Shapes(t *testing.T) {
	pts, err := Fig11.Rows(testScale())
	if err != nil {
		t.Fatal(err)
	}
	ft1 := findRate(pts, "FT(64,2,1)", "RANDOM", 1.0).SustainedRate
	ft2 := findRate(pts, "FT(64,2,2)", "RANDOM", 1.0).SustainedRate
	hop := findRate(pts, "Hoplite", "RANDOM", 1.0).SustainedRate
	if ft1 < 2.0*hop {
		t.Errorf("RANDOM saturation: FT(64,2,1)=%.3f should be ≥2x Hoplite=%.3f", ft1, hop)
	}
	if !(ft2 > hop && ft2 < ft1) {
		t.Errorf("depopulated NoC should sit between: %.3f vs [%.3f, %.3f]", ft2, hop, ft1)
	}
	// Below saturation everyone delivers the offered load.
	lowFT := findRate(pts, "FT(64,2,1)", "RANDOM", 0.05).SustainedRate
	lowHop := findRate(pts, "Hoplite", "RANDOM", 0.05).SustainedRate
	if lowFT/lowHop > 1.1 || lowHop/lowFT > 1.1 {
		t.Errorf("no win expected at 5%% injection: %.4f vs %.4f", lowFT, lowHop)
	}
	// BITCOMPL also gains; latency at saturation is far lower on FT.
	bc1 := findRate(pts, "FT(64,2,1)", "BITCOMPL", 1.0).SustainedRate
	bcH := findRate(pts, "Hoplite", "BITCOMPL", 1.0).SustainedRate
	if bc1 < 1.5*bcH {
		t.Errorf("BITCOMPL saturation: %.3f vs %.3f", bc1, bcH)
	}
	latFT := findRate(pts, "FT(64,2,1)", "RANDOM", 1.0).AvgLatency
	latHop := findRate(pts, "Hoplite", "RANDOM", 1.0).AvgLatency
	if latFT > 0.7*latHop {
		t.Errorf("saturated avg latency: FT %.0f should be well under Hoplite %.0f", latFT, latHop)
	}
}

// TestFig16WorstCaseLatency asserts the low-injection worst-case ordering:
// fully-populated FastTrack ≪ depopulated ≪ Hoplite (the paper reports 7×
// and 3× reductions).
func TestFig16WorstCaseLatency(t *testing.T) {
	res, err := Fig16.Rows(testScale())
	if err != nil {
		t.Fatal(err)
	}
	worst := map[string]int64{}
	for _, r := range res {
		worst[r.Config] = r.WorstLatency
	}
	if !(worst["FT(64,2,1)"] < worst["FT(64,2,2)"] && worst["FT(64,2,2)"] < worst["Hoplite"]) {
		t.Errorf("worst-case ordering wrong: %v", worst)
	}
	if ratio := float64(worst["Hoplite"]) / float64(worst["FT(64,2,1)"]); ratio < 3 {
		t.Errorf("FT(64,2,1) worst-case reduction %.1fx, want ≥3x", ratio)
	}
}

// TestFig17DSweep asserts the D sweet spot: on an 8×8 NoC D=2 outperforms
// D=4 (too-long links exclude short transfers), and depopulation (R=D)
// reduces throughput versus R=1.
func TestFig17DSweep(t *testing.T) {
	pts, err := Fig17.Rows(testScale())
	if err != nil {
		t.Fatal(err)
	}
	get := func(pes, d int, extreme bool) float64 {
		for _, p := range pts {
			if p.PEs == pes && p.D == d && p.RExtreme == extreme {
				return p.SustainedRate
			}
		}
		t.Fatalf("missing point PEs=%d D=%d extreme=%v", pes, d, extreme)
		return 0
	}
	if d2, d4 := get(64, 2, false), get(64, 4, false); d2 <= d4 {
		t.Errorf("8x8: D=2 (%.3f) should beat D=4 (%.3f)", d2, d4)
	}
	if full, depop := get(64, 2, false), get(64, 2, true); full <= depop {
		t.Errorf("full population (%.3f) should beat R=D (%.3f)", full, depop)
	}
}

// TestFig13IsoWiring asserts FastTrack uses wires better than replicated
// Hoplite: FT(64,2,1) ≥ Hoplite-3x sustained rate at saturation.
func TestFig13IsoWiring(t *testing.T) {
	pts, err := Fig13.Rows(testScale())
	if err != nil {
		t.Fatal(err)
	}
	ft := findRate(pts, "FT(64,2,1)", "RANDOM/64PE", 1.0)
	h3 := findRate(pts, "Hoplite-3x", "RANDOM/64PE", 1.0)
	if ft.SustainedRate < 1.1*h3.SustainedRate {
		t.Errorf("FT(64,2,1) %.3f should beat Hoplite-3x %.3f by ≥1.1x",
			ft.SustainedRate, h3.SustainedRate)
	}
	if ft.AvgLatency > h3.AvgLatency {
		t.Errorf("FT latency %.0f should be ≤ Hoplite-3x %.0f", ft.AvgLatency, h3.AvgLatency)
	}
}

// TestFig14CostAware asserts FastTrack needs fewer LUTs than the
// multi-channel alternatives while delivering more throughput than 3x.
func TestFig14CostAware(t *testing.T) {
	pts, err := Fig14.Rows(testScale())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CostPoint{}
	for _, p := range pts {
		byName[p.Config] = p
	}
	ft1, h3 := byName["FT(64,2,1)"], byName["Hoplite-3x"]
	if ft1.LUTs >= h3.LUTs {
		t.Errorf("FT(64,2,1) LUTs %d should undercut Hoplite-3x %d", ft1.LUTs, h3.LUTs)
	}
	if ft1.ThroughputMPPS <= h3.ThroughputMPPS {
		t.Errorf("FT(64,2,1) throughput %.0f should beat Hoplite-3x %.0f",
			ft1.ThroughputMPPS, h3.ThroughputMPPS)
	}
	if ft1.WireCount != h3.WireCount {
		t.Errorf("iso-wiring pair disagrees on wire count: %v vs %v", ft1.WireCount, h3.WireCount)
	}
	// Fig 19: FT(64,2,1) beats baseline Hoplite on throughput with lower
	// or comparable energy.
	hop := byName["Hoplite"]
	if ft1.EnergyJ > 1.3*hop.EnergyJ {
		t.Errorf("FT energy %.3fJ should be ≤1.3x Hoplite %.3fJ", ft1.EnergyJ, hop.EnergyJ)
	}
}

// TestFig18ExpressLinksReduceDeflections asserts the Fig 18 accounting:
// FastTrack shifts traffic onto express links and cuts total misroutes.
func TestFig18ExpressLinksReduceDeflections(t *testing.T) {
	res, err := Fig18.Rows(testScale())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig18Result{}
	for _, r := range res {
		byName[r.Config] = r
	}
	ft1, ft2, hop := byName["FT(64,2,1)"], byName["FT(64,2,2)"], byName["Hoplite"]
	if ft1.ExpressHops == 0 || ft2.ExpressHops == 0 {
		t.Fatal("no express usage recorded")
	}
	if ft1.ExpressHops <= ft2.ExpressHops {
		t.Errorf("less depopulation should mean more express hops: %d vs %d",
			ft1.ExpressHops, ft2.ExpressHops)
	}
	sum := func(m map[string]int64) int64 {
		var t int64
		for _, v := range m {
			t += v
		}
		return t
	}
	if sum(ft1.Misroutes) >= sum(hop.Misroutes) {
		t.Errorf("FT(64,2,1) misroutes %d should be below Hoplite %d",
			sum(ft1.Misroutes), sum(hop.Misroutes))
	}
}

// TestFig15Shapes asserts positive speedups for the throughput-bound
// suites and the benchmark-specific facts the paper calls out.
func TestFig15Shapes(t *testing.T) {
	sc := testScale()
	sc.TraceBenchmarks = 0 // need named benchmarks

	a, err := Fig15a.Rows(Scale{Quota: sc.Quota, MaxN: 8, TraceBenchmarks: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range a {
		if p.Speedup < 0.95 {
			t.Errorf("spmv %s@%d: FT slower than Hoplite (%.2fx)", p.Benchmark, p.PEs, p.Speedup)
		}
	}

	c, err := Fig15c.Rows(Scale{Quota: sc.Quota, MaxN: 8, TraceBenchmarks: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range c {
		if p.Speedup < 1.0 || p.Speedup > 2.2 {
			t.Errorf("LU %s: speedup %.2fx outside the latency-bound band (1.0-2.2)",
				p.Benchmark, p.Speedup)
		}
	}

	d, err := Fig15d.Rows(Scale{Quota: sc.Quota, MaxN: 8, TraceBenchmarks: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var freqmine, best float64
	for _, p := range d {
		if strings.Contains(p.Benchmark, "freqmine") {
			freqmine = p.Speedup
		}
		if p.Speedup > best {
			best = p.Speedup
		}
	}
	if freqmine == 0 || best == 0 {
		t.Fatal("missing overlay results")
	}
	if freqmine > 0.8*best {
		t.Errorf("freqmine (local traffic, %.2fx) should gain much less than the best (%.2fx)",
			freqmine, best)
	}
}

// TestRunAllRendersAtQuickScale smoke-runs every registered experiment.
func TestRunAllRendersAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := QuickScale()
	for _, e := range All() {
		var buf bytes.Buffer
		if err := e.Run(&buf, sc); err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if buf.Len() == 0 {
			t.Errorf("%s rendered nothing", e.ID)
		}
	}
}

// TestExtensionShapes asserts the ablation experiments tell the expected
// stories: Inject is cheaper but slower than Full, one pipeline stage
// raises the clock of a long-express design, and the cacheline study shows
// wider datapaths winning until routability caps them.
func TestExtensionShapes(t *testing.T) {
	sc := testScale()

	vp, err := ExtVariants.Rows(sc)
	if err != nil {
		t.Fatal(err)
	}
	var fullRate, injRate float64
	var fullLUTs, injLUTs int
	for _, p := range vp {
		if p.InjectionRate != 1.0 {
			continue
		}
		if p.Variant == "FT(Full)" {
			fullRate, fullLUTs = p.SustainedRate, p.LUTs
		} else {
			injRate, injLUTs = p.SustainedRate, p.LUTs
		}
	}
	if injLUTs >= fullLUTs {
		t.Errorf("Inject (%d LUTs) should undercut Full (%d)", injLUTs, fullLUTs)
	}
	if injRate >= fullRate {
		t.Errorf("Full (%.3f) should out-sustain Inject (%.3f)", fullRate, injRate)
	}

	pp, err := ExtPipeline.Rows(sc)
	if err != nil {
		t.Fatal(err)
	}
	if pp[1].ClockMHz <= pp[0].ClockMHz {
		t.Errorf("one pipeline stage should raise the clock: %.0f vs %.0f",
			pp[1].ClockMHz, pp[0].ClockMHz)
	}
	if pp[1].ThroughputMPPS <= pp[0].ThroughputMPPS {
		t.Errorf("pipelined FT(64,4,1) should deliver more pkt/s: %.0f vs %.0f",
			pp[1].ThroughputMPPS, pp[0].ThroughputMPPS)
	}

	fp, err := ExtFairness.Rows(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range fp {
		if p.JainIndex <= 0 || p.JainIndex > 1 {
			t.Errorf("%s Jain index %v out of range", p.Config, p.JainIndex)
		}
	}

	cp, err := ExtCacheline.Rows(Scale{Quota: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for _, p := range cp {
		if p.Config != "FT(16,2,1)" || !p.Routable || p.WidthBits > 512 {
			continue
		}
		if p.LinesPerSec <= last {
			t.Errorf("wider datapath should move more cachelines: %d bits -> %.1f Ml/s (prev %.1f)",
				p.WidthBits, p.LinesPerSec, last)
		}
		last = p.LinesPerSec
	}
	sawNA := false
	for _, p := range cp {
		if !p.Routable {
			sawNA = true
		}
	}
	if !sawNA {
		t.Error("expected the 1024b FastTrack point to fail routability")
	}
}

// TestExtBufferedShapes asserts the simulated Fig 1 story: the buffered
// mesh wins on packets/cycle over Hoplite, but FastTrack wins on packets/ns
// at a fraction of the buffered router's LUT cost.
func TestExtBufferedShapes(t *testing.T) {
	pts, err := ExtBuffered.Rows(testScale())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BufferedPoint{}
	for _, p := range pts {
		byName[p.Config] = p
	}
	buf, hop, ft := byName["BufferedMesh(d=4)"], byName["Hoplite"], byName["FT(64,2,1)"]
	if buf.SustainedRate <= hop.SustainedRate {
		t.Errorf("buffered per-cycle rate %.3f should beat Hoplite %.3f",
			buf.SustainedRate, hop.SustainedRate)
	}
	if buf.LUTsPerRouter < 5*hop.LUTsPerRouter {
		t.Errorf("buffered router %d LUTs should dwarf Hoplite %d",
			buf.LUTsPerRouter, hop.LUTsPerRouter)
	}
	if ft.PktPerNS <= buf.PktPerNS {
		t.Errorf("FT pkt/ns %.2f should beat buffered %.2f (wire speed wins)",
			ft.PktPerNS, buf.PktPerNS)
	}
	if ft.LUTsPerRouter >= buf.LUTsPerRouter {
		t.Errorf("FT router %d LUTs should undercut buffered %d",
			ft.LUTsPerRouter, buf.LUTsPerRouter)
	}
}
