package experiments

import (
	"context"
	"fmt"
	"io"

	"fasttrack/internal/core"
	"fasttrack/internal/noc"
	"fasttrack/internal/runner"
	"fasttrack/internal/sim"
)

// fig11Configs are the NoCs compared throughout the synthetic evaluation:
// FT(N²,2,1), FT(N²,2,2), and baseline Hoplite.
func fig11Configs(n int) []core.Config {
	return []core.Config{
		core.FastTrack(n, 2, 1),
		core.FastTrack(n, 2, 2),
		core.Hoplite(n),
	}
}

// RatePoint is one (config, pattern, injection-rate) sample.
type RatePoint struct {
	Config        string
	Pattern       string
	InjectionRate float64
	SustainedRate float64
	AvgLatency    float64
	WorstLatency  int64
}

// sweepSynthetic runs the rate sweep for the given configs and patterns, one
// job per grid point (runner.DoSynthetic: cache hits inline, each miss its
// own sweep job). With AdaptiveRates set the dense grid is replaced by one
// adaptive saturation search per curve, which bisects sequentially.
func sweepSynthetic(sc Scale, configs []core.Config, patterns []string) ([]RatePoint, error) {
	if sc.AdaptiveRates {
		return sweepSyntheticAdaptive(sc, configs, patterns)
	}
	var jobs []runner.SyntheticJob
	for _, pat := range patterns {
		for _, cfg := range configs {
			for _, rate := range sc.Rates {
				jobs = append(jobs, runner.SyntheticJob{Cfg: cfg, Opts: core.SyntheticOptions{
					Pattern: pat, Rate: rate, PacketsPerPE: sc.Quota, Seed: sc.Seed,
				}})
			}
		}
	}
	results, err := runner.DoSynthetic(context.Background(), sc.orch(), jobs)
	if err != nil {
		return nil, err
	}
	pts := make([]RatePoint, len(jobs))
	for i, res := range results {
		j := jobs[i]
		pts[i] = RatePoint{
			Config: j.Cfg.String(), Pattern: j.Opts.Pattern, InjectionRate: j.Opts.Rate,
			SustainedRate: res.SustainedRate, AvgLatency: res.AvgLatency,
			WorstLatency: res.WorstLatency,
		}
	}
	return pts, nil
}

// adaptiveBracket derives the search bracket from a dense grid: the lowest
// rate stays as a guaranteed curve anchor (the figures' "no win below
// saturation" region) and the highest bounds the bisection.
func adaptiveBracket(rates []float64) (probes []float64, hi float64) {
	hi = 1.0
	if len(rates) == 0 {
		return nil, hi
	}
	lo := rates[0]
	hi = rates[0]
	for _, r := range rates[1:] {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	return []float64{lo}, hi
}

// sweepSyntheticAdaptive runs one saturation search per (pattern, config)
// curve. Each bisection is sequential by nature, so parallelism is across
// curves; every evaluation goes through the result cache, and bisection
// midpoints are deterministic, so warm reruns evaluate nothing.
func sweepSyntheticAdaptive(sc Scale, configs []core.Config, patterns []string) ([]RatePoint, error) {
	type curve struct {
		pat string
		cfg core.Config
	}
	var curves []curve
	for _, pat := range patterns {
		for _, cfg := range configs {
			curves = append(curves, curve{pat: pat, cfg: cfg})
		}
	}
	probes, hi := adaptiveBracket(sc.Rates)
	results := make([][]RatePoint, len(curves))
	err := sc.forEachParallel(len(curves), func(ctx context.Context, i int) error {
		c := curves[i]
		sat, err := runner.SaturationSearch(func(rate float64) (sim.Result, error) {
			return sc.runSynthetic(ctx, c.cfg, core.SyntheticOptions{
				Pattern: c.pat, Rate: rate, PacketsPerPE: sc.Quota, Seed: sc.Seed,
			})
		}, runner.SaturationOptions{Hi: hi, Probes: probes})
		if err != nil {
			return fmt.Errorf("%s/%s: %w", c.cfg, c.pat, err)
		}
		pts := make([]RatePoint, len(sat.Evals))
		for j, e := range sat.Evals {
			pts[j] = RatePoint{
				Config: c.cfg.String(), Pattern: c.pat, InjectionRate: e.Rate,
				SustainedRate: e.Result.SustainedRate, AvgLatency: e.Result.AvgLatency,
				WorstLatency: e.Result.WorstLatency,
			}
		}
		results[i] = pts
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pts []RatePoint
	for _, r := range results {
		pts = append(pts, r...)
	}
	return pts, nil
}

// Fig11Data sweeps sustained rate vs injection rate for the paper's four
// patterns on the 64-PE system (8×8).
func Fig11Data(sc Scale) ([]RatePoint, error) {
	n := sc.capN(8)
	return sweepSynthetic(sc, fig11Configs(n),
		[]string{"BITCOMPL", "LOCAL", "RANDOM", "TRANSPOSE"})
}

func renderRatePoints(w io.Writer, pts []RatePoint, value func(RatePoint) string, valueName string) error {
	t := newTable(w, "Pattern", "Config", "InjRate", valueName)
	for _, p := range pts {
		t.row(p.Pattern, p.Config, fmt.Sprintf("%.2f", p.InjectionRate), value(p))
	}
	return t.flush()
}

// RunFig11 renders sustained-rate curves.
func RunFig11(w io.Writer, sc Scale) error {
	header(w, "fig11", "Sustained rate (pkt/cycle/PE) for synthetic traffic, 64-PE NoCs")
	pts, err := Fig11Data(sc)
	if err != nil {
		return err
	}
	return renderRatePoints(w, pts, func(p RatePoint) string {
		return fmt.Sprintf("%.4f", p.SustainedRate)
	}, "Sustained")
}

// RunFig12 renders average-latency curves from the same sweep.
func RunFig12(w io.Writer, sc Scale) error {
	header(w, "fig12", "Average packet latency (cycles) for synthetic traffic, 64-PE NoCs")
	pts, err := Fig11Data(sc)
	if err != nil {
		return err
	}
	return renderRatePoints(w, pts, func(p RatePoint) string {
		return fmt.Sprintf("%.1f", p.AvgLatency)
	}, "AvgLatency")
}

// HistogramRow is one bucket of the Fig 16 latency histograms.
type HistogramRow struct {
	Config     string
	UpperBound int64 // -1 = overflow bucket
	Percent    float64
}

// Fig16Result captures one config's latency distribution at low injection.
type Fig16Result struct {
	Config       string
	WorstLatency int64
	P50, P99     int64
	Rows         []HistogramRow
}

// Fig16Data runs RANDOM traffic below saturation (<10% injection) and
// returns the per-config latency histograms, reproducing the paper's
// worst-case latency comparison (7× / 3× smaller for FT R=1 / R=D).
func Fig16Data(sc Scale) ([]Fig16Result, error) {
	n := sc.capN(8)
	var out []Fig16Result
	for _, cfg := range fig11Configs(n) {
		res, err := sc.runSynthetic(context.Background(), cfg, core.SyntheticOptions{
			Pattern: "RANDOM", Rate: 0.09, PacketsPerPE: sc.Quota, Seed: sc.Seed,
		})
		if err != nil {
			return nil, err
		}
		fr := Fig16Result{Config: cfg.String(), WorstLatency: res.WorstLatency,
			P50: res.P50, P99: res.P99}
		total := float64(res.Latency.Count())
		res.Latency.Buckets(func(upper, count int64) {
			fr.Rows = append(fr.Rows, HistogramRow{Config: fr.Config,
				UpperBound: upper, Percent: 100 * float64(count) / total})
		})
		out = append(out, fr)
	}
	return out, nil
}

// RunFig16 renders the latency histograms.
func RunFig16(w io.Writer, sc Scale) error {
	header(w, "fig16", "Packet latency histogram, 64-PE RANDOM at <10% injection")
	results, err := Fig16Data(sc)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintf(w, "-- %s: worst=%d p50=%d p99=%d\n", r.Config, r.WorstLatency, r.P50, r.P99)
		t := newTable(w, "Latency<=", "Percent")
		for _, row := range r.Rows {
			label := fmt.Sprint(row.UpperBound)
			if row.UpperBound < 0 {
				label = "overflow"
			}
			t.row(label, fmt.Sprintf("%.2f%%", row.Percent))
		}
		if err := t.flush(); err != nil {
			return err
		}
	}
	return nil
}

// Fig17Point is one (N, D, R-policy) sustained-rate sample at 50% RANDOM
// injection.
type Fig17Point struct {
	PEs           int
	D             int
	RExtreme      bool // false: R=1 (full population); true: R=D
	SustainedRate float64
}

// Fig17Data sweeps the express link length D for R=1 and R=D, reproducing
// the paper's observation that D=2 beats D=4 on an 8×8 NoC because overly
// long links exclude short transfers from the express network.
func Fig17Data(sc Scale) ([]Fig17Point, error) {
	type job struct {
		n, d, r int
		extreme bool
	}
	var jobs []job
	for _, n := range []int{4, 8, 16} {
		if sc.MaxN > 0 && n > sc.MaxN {
			continue
		}
		for _, d := range []int{1, 2, 3, 4, 6, 8} {
			if d > n/2 {
				continue
			}
			for _, extreme := range []bool{false, true} {
				r := 1
				if extreme {
					r = d
				}
				if d%r != 0 || n%r != 0 {
					continue // depopulation braid cannot close
				}
				jobs = append(jobs, job{n: n, d: d, r: r, extreme: extreme})
			}
		}
	}
	pts := make([]Fig17Point, len(jobs))
	err := sc.forEachParallel(len(jobs), func(ctx context.Context, i int) error {
		j := jobs[i]
		cfg := core.FastTrack(j.n, j.d, j.r)
		res, err := sc.runSynthetic(ctx, cfg, core.SyntheticOptions{
			Pattern: "RANDOM", Rate: 0.5, PacketsPerPE: sc.Quota, Seed: sc.Seed,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", cfg, err)
		}
		pts[i] = Fig17Point{PEs: j.n * j.n, D: j.d, RExtreme: j.extreme,
			SustainedRate: res.SustainedRate}
		return nil
	})
	return pts, err
}

// RunFig17 renders the D sweep.
func RunFig17(w io.Writer, sc Scale) error {
	header(w, "fig17", "Sustained rate vs express link length D (RANDOM @ 50% injection)")
	pts, err := Fig17Data(sc)
	if err != nil {
		return err
	}
	t := newTable(w, "PEs", "D", "R", "Sustained")
	for _, p := range pts {
		r := "1"
		if p.RExtreme {
			r = "D"
		}
		t.row(p.PEs, p.D, r, fmt.Sprintf("%.4f", p.SustainedRate))
	}
	return t.flush()
}

// Fig18Result captures link usage and per-input deflections for one config.
type Fig18Result struct {
	Config        string
	ShortHops     int64
	ExpressHops   int64
	Misroutes     map[string]int64
	ExpressDenied map[string]int64
}

// Fig18Data runs 64-PE RANDOM traffic and extracts the Fig 18a/18b
// counters: short vs express hop usage, and deflections by input port.
func Fig18Data(sc Scale) ([]Fig18Result, error) {
	n := sc.capN(8)
	var out []Fig18Result
	for _, cfg := range fig11Configs(n) {
		res, err := sc.runSynthetic(context.Background(), cfg, core.SyntheticOptions{
			Pattern: "RANDOM", Rate: 0.5, PacketsPerPE: sc.Quota, Seed: sc.Seed,
		})
		if err != nil {
			return nil, err
		}
		fr := Fig18Result{
			Config:        cfg.String(),
			ShortHops:     res.Counters.ShortTraversals,
			ExpressHops:   res.Counters.ExpressTraversals,
			Misroutes:     map[string]int64{},
			ExpressDenied: map[string]int64{},
		}
		for p := noc.Port(0); p < noc.NumPorts; p++ {
			if v := res.Counters.MisroutesByInput[p]; v > 0 {
				fr.Misroutes[p.String()] = v
			}
			if v := res.Counters.ExpressDeniedByInput[p]; v > 0 {
				fr.ExpressDenied[p.String()] = v
			}
		}
		out = append(out, fr)
	}
	return out, nil
}

// RunFig18 renders link usage (18a) and deflection counters (18b).
func RunFig18(w io.Writer, sc Scale) error {
	header(w, "fig18", "Link usage and deflections, 64-PE RANDOM traffic")
	results, err := Fig18Data(sc)
	if err != nil {
		return err
	}
	t := newTable(w, "Config", "ShortHops", "ExpressHops", "TotalHops")
	for _, r := range results {
		t.row(r.Config, r.ShortHops, r.ExpressHops, r.ShortHops+r.ExpressHops)
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "-- deflections by input port (misroutes / express-denied)")
	t = newTable(w, "Config", "Port", "Misroutes", "ExpressDenied")
	for _, r := range results {
		for p := noc.Port(0); p < noc.NumPorts; p++ {
			name := p.String()
			m, d := r.Misroutes[name], r.ExpressDenied[name]
			if m == 0 && d == 0 {
				continue
			}
			t.row(r.Config, name, m, d)
		}
	}
	return t.flush()
}

// saturationThroughput returns the sustained rate at 100% injection.
func saturationThroughput(cfg core.Config, sc Scale) (sim.Result, error) {
	return sc.runSynthetic(context.Background(), cfg, core.SyntheticOptions{
		Pattern: "RANDOM", Rate: 1.0, PacketsPerPE: sc.Quota, Seed: sc.Seed,
	})
}
