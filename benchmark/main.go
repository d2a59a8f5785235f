// Command benchmark is this repository's one performance benchmark: five
// named workloads over the engine, the sweep orchestrator and the ftserve
// daemon, each with end-to-end metrics (untraced run) and per-layer metrics
// (a separate traced run whose spans are recorded around every call this
// program makes into a layer's public functions). BENCHMARK.json at the
// repository root lists the same workloads and metrics; README.md in this
// directory explains why each was chosen.
//
//	go run ./benchmark --workload engine-sat --seed 1 --seconds 12 --trace 0
//	go run ./benchmark -sets 3 -out benchmark/out/a.json
//	go run ./benchmark compare benchmark/out/a.json benchmark/out/b.json
//
// Every timing is host time. Simulated statistics are exact and are used
// only for correctness digests and for normalising; the model itself is not
// mechanically validated against the paper here, so no error figure is
// printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// options is one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	smoke   bool
	// outDir receives trace files and holds the run's scratch directory, so
	// the program writes nowhere else.
	outDir string
}

// procs fixes every degree of parallelism (orchestrator workers, daemon
// workers, load-generator clients and connections) so the numbers measure
// the program and not the scheduler.
func procs() int { return min(runtime.NumCPU(), 2) }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 12, "measuring budget: timed passes repeat until it is spent (at least one)")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and benchmark/out/<workload>.trace.json")
	scale := flag.String("scale", "full", "full | smoke (tiny inputs for the tier-1 test)")
	sets := flag.Int("sets", 0, "run every workload this many times, alternately, and write the set to -out")
	out := flag.String("out", "", "with -sets: result file to write; otherwise optional result file for this run")
	flag.Parse()

	if *scale != "full" && *scale != "smoke" {
		fatal(fmt.Errorf("unknown -scale %q (full|smoke)", *scale))
	}
	dir, err := outDir()
	if err != nil {
		fatal(err)
	}
	opt := options{seed: *seed, seconds: *seconds, traced: *trace != 0, smoke: *scale == "smoke", outDir: dir}

	if *sets > 0 {
		if *out == "" {
			fatal(fmt.Errorf("-sets needs -out <file>"))
		}
		if err := runSets(*sets, opt, *out, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown -workload %q (%s)", *name, workloadNames()))
	}
	res, err := runWorkload(w, opt)
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if *out != "" {
		if err := writeSet(*out, resultSet{Provenance: provenanceOf(opt), Runs: []*runResult{res}}); err != nil {
			fatal(err)
		}
	}
	if err := res.printResultLine(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// outDir locates benchmark/out from either the repository root (how the
// benchmark is run) or this package's directory (how go test runs).
func outDir() (string, error) {
	for _, dir := range []string{"benchmark", "."} {
		if _, err := os.Stat(filepath.Join(dir, "golden.json")); err == nil {
			out := filepath.Join(dir, "out")
			return out, os.MkdirAll(out, 0o755)
		}
	}
	return "", fmt.Errorf("run from the repository root: benchmark/golden.json not found")
}

// printResultLine writes the machine-readable last line: with tracing off
// the metrics are every end-to-end metric, with tracing on every per-layer
// metric.
func (r *runResult) printResultLine(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.Metrics {
		if m.PerLayer == r.Traced {
			metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
