// Package experiments regenerates every table and figure of the paper's
// evaluation (§III, §V, §VI). Each experiment has a data function returning
// typed results (asserted by tests and reported by benchmarks) and a Run
// function that renders the same rows/series the paper plots.
//
// Experiments accept a Scale so the full paper-sized sweeps (ftexp) and the
// quick CI-sized ones (go test / go bench) share one code path.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"fasttrack/internal/runner"
)

// Scale sizes an experiment run.
type Scale struct {
	// Quota is the synthetic packets-per-PE budget (paper: 1000).
	Quota int
	// Rates is the injection-rate sweep for throughput/latency curves.
	Rates []float64
	// MaxN caps the torus width (16 covers the paper's 256-PE points).
	MaxN int
	// TraceBenchmarks caps how many benchmarks per Fig 15 suite run (0 =
	// all).
	TraceBenchmarks int
	// Seed fixes all random streams.
	Seed uint64
	// Orch, when non-nil, schedules this scale's simulations: worker-pool
	// fan-out, live progress, and a content-addressed result cache that
	// skips every simulation already on disk (ftexp -cache). nil falls back
	// to an uncached CPU-parallel default.
	Orch *runner.Orchestrator
	// AdaptiveRates replaces the dense Rates grid of the injection-rate
	// figures (11-13) with an adaptive saturation search: bisection on the
	// throughput knee whose evaluations double as curve samples, cutting
	// the run count per curve ~2-4x (ftexp -adaptive).
	AdaptiveRates bool
}

// FullScale reproduces the paper-sized sweeps.
func FullScale() Scale {
	return Scale{
		Quota: 1000,
		Rates: []float64{0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0},
		MaxN:  16,
		Seed:  1,
	}
}

// QuickScale is a minutes-not-hours variant with the same shapes.
func QuickScale() Scale {
	return Scale{
		Quota:           150,
		Rates:           []float64{0.05, 0.1, 0.3, 1.0},
		MaxN:            8,
		TraceBenchmarks: 2,
		Seed:            1,
	}
}

func (s Scale) capN(n int) int {
	if s.MaxN > 0 && n > s.MaxN {
		return s.MaxN
	}
	return n
}

func (s Scale) capBenchmarks(n int) int {
	if s.TraceBenchmarks > 0 && n > s.TraceBenchmarks {
		return s.TraceBenchmarks
	}
	return n
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	// ID is the paper reference: "table1", "fig11", "fig15a", ...
	ID string
	// Title describes what the paper shows there.
	Title string
	// Run regenerates the table/figure as text.
	Run func(w io.Writer, sc Scale) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "FPGA implementations of 32b NoC routers", Run: RunTable1},
		{ID: "fig1", Title: "Area-bandwidth tradeoffs of FPGA NoCs", Run: RunFig1},
		{ID: "fig4", Title: "Virtual express links: frequency vs distance and LUT hops", Run: RunFig4},
		{ID: "fig6", Title: "Physical express links: frequency vs distance and bypassed hops", Run: RunFig6},
		{ID: "table2", Title: "Resource usage and frequency of an 8x8 256b NoC", Run: RunTable2},
		{ID: "fig10", Title: "Peak frequency of FastTrack NoCs of varying datawidths", Run: RunFig10},
		{ID: "fig11", Title: "Sustained rate vs injection rate (synthetic traffic)", Run: RunFig11},
		{ID: "fig12", Title: "Average latency vs injection rate (synthetic traffic)", Run: RunFig12},
		{ID: "fig13", Title: "Multi-channel Hoplite vs FastTrack at iso-wiring", Run: RunFig13},
		{ID: "fig14", Title: "Cost-aware throughput (LUT area and wire count)", Run: RunFig14},
		{ID: "fig15a", Title: "SpMV accelerator trace speedups", Run: RunFig15a},
		{ID: "fig15b", Title: "Graph analytics trace speedups", Run: RunFig15b},
		{ID: "fig15c", Title: "Token LU dataflow trace speedups", Run: RunFig15c},
		{ID: "fig15d", Title: "Multiprocessor overlay trace speedups", Run: RunFig15d},
		{ID: "fig16", Title: "Packet latency histogram (RANDOM, low injection)", Run: RunFig16},
		{ID: "fig17", Title: "Sustained rate vs express link length D", Run: RunFig17},
		{ID: "fig18", Title: "Link usage and deflections", Run: RunFig18},
		{ID: "fig19", Title: "Throughput-energy tradeoffs", Run: RunFig19},
	}
}

// AllWithExtensions returns the paper experiments followed by this repo's
// ablation/extension experiments.
func AllWithExtensions() []Experiment {
	return append(All(), Extensions()...)
}

// ByID returns the experiment with the given id (paper or extension).
func ByID(id string) (Experiment, error) {
	for _, e := range AllWithExtensions() {
		if e.ID == id {
			return e, nil
		}
	}
	var known []string
	for _, e := range AllWithExtensions() {
		known = append(known, e.ID)
	}
	sort.Strings(known)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
}

// table renders aligned columns.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer, headers ...string) *table {
	t := &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
	for i, h := range headers {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, h)
	}
	fmt.Fprintln(t.tw)
	return t
}

func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(t.tw, "%.4g", v)
		default:
			fmt.Fprintf(t.tw, "%v", v)
		}
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() error { return t.tw.Flush() }

func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "== %s: %s ==\n", id, title)
}
