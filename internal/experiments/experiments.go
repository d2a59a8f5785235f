// Package experiments regenerates every table and figure of the paper's
// evaluation (§III, §V, §VI) and this repo's extension experiments. Each one
// is a single declarative Figure value: its id and title, the simulations it
// reads (a job list, exactly its cache keys), a reducer from their results
// to typed rows, and the columns one shared renderer prints. Tests and
// benchmarks read the same typed rows through the value (Fig11.Rows(sc)).
//
// Experiments accept a Scale so the full paper-sized sweeps (ftexp) and the
// quick CI-sized ones (go test / go bench) share one code path.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"fasttrack/internal/core"
	"fasttrack/internal/runner"
	"fasttrack/internal/sim"
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

// sizes filters torus widths by the scale cap.
func (s Scale) sizes(ns ...int) []int {
	var out []int
	for _, n := range ns {
		if s.MaxN == 0 || n <= s.MaxN {
			out = append(out, n)
		}
	}
	return out
}

func (s Scale) capBenchmarks(n int) int {
	if s.TraceBenchmarks > 0 && n > s.TraceBenchmarks {
		return s.TraceBenchmarks
	}
	return n
}

// defaultOrch schedules simulations for Scales that carry no orchestrator:
// parallel across CPUs, uncached.
var defaultOrch = &runner.Orchestrator{}

// orch returns the sweep orchestrator in effect for this scale.
func (s Scale) orch() *runner.Orchestrator {
	if s.Orch != nil {
		return s.Orch
	}
	return defaultOrch
}

// Figure is one table or figure as a value that the sweep (Rows) and the
// renderer (Run) both read. A figure either declares Jobs, the synthetic
// simulations it reads with one entry per cache key, and a Reduce from
// their results to rows, or computes its rows with Data.
type Figure[R any] struct {
	// ID is the paper reference ("table1", "fig11", "ext-variants", ...),
	// Title what the paper shows there, and Heading the line Run prints
	// above the rows (empty when Render prints its own).
	ID, Title, Heading string

	// Jobs lists the synthetic simulations the figure reads; Reduce turns
	// their results, in job order, into rows.
	Jobs   func(sc Scale) []runner.SyntheticJob
	Reduce func(jobs []runner.SyntheticJob, res []sim.Result) ([]R, error)
	// PerJob makes every key its own ForEach job that looks itself up,
	// instead of runner.DoSynthetic's inline hits and scheduled misses.
	// Only Fig17 sets it; its comment says why.
	PerJob bool
	// Traces lists the trace replays of a trace-suite figure, whose Data
	// runs them.
	Traces func(sc Scale) []traceJob
	// Data computes the rows of a figure without synthetic Jobs: the
	// FPGA-model figures, the trace suites and the bespoke-job extensions.
	Data func(sc Scale) ([]R, error)

	// Columns heads the table the shared renderer prints, one Row per row.
	Columns []string
	Row     func(r R) []any
	// Render, when set, prints the rows instead: pivots and multi-table
	// figures.
	Render func(w io.Writer, sc Scale, rows []R) error
}

// Rows computes the figure's typed rows at scale sc.
func (f *Figure[R]) Rows(sc Scale) ([]R, error) {
	if f.Jobs == nil {
		return f.Data(sc)
	}
	jobs := f.Jobs(sc)
	do := runner.DoSynthetic
	if f.PerJob {
		do = doEach
	}
	res, err := do(context.Background(), sc.orch(), jobs)
	if err != nil {
		return nil, err
	}
	return f.Reduce(jobs, res)
}

// Run regenerates the figure as text.
func (f *Figure[R]) Run(w io.Writer, sc Scale) error {
	if f.Heading != "" {
		fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Heading)
	}
	rows, err := f.Rows(sc)
	if err != nil {
		return err
	}
	if f.Render != nil {
		return f.Render(w, sc, rows)
	}
	t := newTable(w, f.Columns...)
	for _, r := range rows {
		t.row(f.Row(r)...)
	}
	return t.flush()
}

// jobList is the figure's declared job list.
func (f *Figure[R]) jobList(sc Scale) (syn []runner.SyntheticJob, traces []traceJob) {
	if f.Jobs != nil {
		syn = f.Jobs(sc)
	}
	if f.Traces != nil {
		traces = f.Traces(sc)
	}
	return syn, traces
}

func (f *Figure[R]) experiment() Experiment {
	return Experiment{ID: f.ID, Title: f.Title, Run: f.Run, jobList: f.jobList}
}

// each lifts a reducer of one job's result to one row over a job list.
func each[R any](f func(j runner.SyntheticJob, res sim.Result) (R, error)) func([]runner.SyntheticJob, []sim.Result) ([]R, error) {
	return func(jobs []runner.SyntheticJob, res []sim.Result) ([]R, error) {
		rows := make([]R, len(jobs))
		for i, j := range jobs {
			var err error
			if rows[i], err = f(j, res[i]); err != nil {
				return nil, fmt.Errorf("%s: %w", j.Cfg, err)
			}
		}
		return rows, nil
	}
}

// doEach answers jobs with one ForEach job per key, each looking its key up
// itself (runner.Do), so a warm sweep still schedules every key.
func doEach(ctx context.Context, o *runner.Orchestrator, jobs []runner.SyntheticJob) ([]sim.Result, error) {
	res := make([]sim.Result, len(jobs))
	err := o.ForEach(ctx, len(jobs), func(ctx context.Context, i int) error {
		j := jobs[i]
		var err error
		res[i], _, err = runner.Do(ctx, o, runner.SyntheticKey(j.Cfg, j.Opts), func() (sim.Result, error) {
			return core.RunSynthetic(ctx, j.Cfg, j.Opts)
		})
		return err
	})
	return res, err
}

// Experiment is one registry entry: a figure with its row type erased.
type Experiment struct {
	// ID is the paper reference: "table1", "fig11", "fig15a", ...
	ID string
	// Title describes what the paper shows there.
	Title string
	// Run regenerates the table/figure as text.
	Run func(w io.Writer, sc Scale) error
	// jobList is the figure's declared job list (empty when it declares
	// none).
	jobList func(sc Scale) ([]runner.SyntheticJob, []traceJob)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		Table1.experiment(), Fig1.experiment(), Fig4.experiment(), Fig6.experiment(),
		Table2.experiment(), Fig10.experiment(),
		Fig11.experiment(), Fig12.experiment(), Fig13.experiment(), Fig14.experiment(),
		Fig15a.experiment(), Fig15b.experiment(), Fig15c.experiment(), Fig15d.experiment(),
		Fig16.experiment(), Fig17.experiment(), Fig18.experiment(), Fig19.experiment(),
	}
}

// Extensions returns the beyond-the-paper experiments.
func Extensions() []Experiment {
	return []Experiment{
		ExtVariants.experiment(), ExtPipeline.experiment(), ExtZeroLoad.experiment(),
		ExtFairness.experiment(), ExtCacheline.experiment(), ExtBuffered.experiment(),
	}
}

// AllWithExtensions returns the paper experiments followed by this repo's
// ablation/extension experiments.
func AllWithExtensions() []Experiment {
	return append(All(), Extensions()...)
}

// ByID returns the experiment with the given id (paper or extension).
func ByID(id string) (Experiment, error) {
	var known []string
	for _, e := range AllWithExtensions() {
		if e.ID == id {
			return e, nil
		}
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
	fmt.Fprintln(t.tw, strings.Join(headers, "\t"))
	return t
}

// row prints one row; each cell prints as %v.
func (t *table) row(cells ...any) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		fmt.Fprint(t.tw, c)
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() error { return t.tw.Flush() }
