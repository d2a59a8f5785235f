package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// resultSet is a result file: the runs of one commit on one machine.
type resultSet struct {
	Provenance provenance   `json:"provenance"`
	Runs       []*runResult `json:"runs"`
}

func writeSet(path string, set resultSet) error {
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// runSets runs every workload n times, alternating workloads so that slow
// drift of the machine lands on all of them alike, and writes the set. Each
// run is a fresh process of this program, as the single-run command is, so
// no heap or pool state carries from one run to the next. Run i uses seed+i:
// a set spans n seeds, and two sets made with the same flags span the same
// ones.
func runSets(n int, opt options, path string, w io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	prov := provenanceOf(opt)
	set := resultSet{Provenance: prov}
	for i := 0; i < n; i++ {
		for _, wl := range workloads {
			one := filepath.Join(opt.outDir, fmt.Sprintf("set-%d-%s.json", i, wl.Name))
			cmd := exec.Command(exe, "-workload", wl.Name, "-scale", prov.Scale,
				"-seed", fmt.Sprint(opt.seed+uint64(i)), "-seconds", fmt.Sprint(opt.seconds), "-out", one)
			cmd.Stdout, cmd.Stderr = w, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("set run %d of %s: %w", i, wl.Name, err)
			}
			run, err := readSet(one)
			if err != nil {
				return err
			}
			if err := os.Remove(one); err != nil {
				return err
			}
			set.Runs = append(set.Runs, run.Runs...)
		}
	}
	return writeSet(path, set)
}

// quartiles returns the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) gives them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// side is one set's runs of one metric on one workload.
type side struct {
	q1, med, q3 float64
	lo, hi      float64
}

func sideOf(xs []float64) side {
	q1, med, q3 := quartiles(xs)
	s := side{q1: q1, med: med, q3: q3, lo: xs[0], hi: xs[0]}
	for _, x := range xs {
		s.lo, s.hi = min(s.lo, x), max(s.hi, x)
	}
	return s
}

// spread is the distance between the quartiles as a share of the median.
func (s side) spread() float64 { return ratio(s.q3-s.q1, s.med) }

// verdict compares set B against baseline A for one metric.
//
//	worse       B's median is worse than A's by more than the bound
//	better      B's median is better by more than A's own spread
//	same        neither
//	unresolved  a side's own run-to-run spread exceeds the bound, so "no
//	            worse than the bound" cannot be shown — unless every run of B
//	            reads better (or worse) than every run of A
func verdict(a, b side, d metricDef) string {
	sign := 1.0 // positive change = worse
	if d.Better == "higher" {
		sign = -1
	}
	change := sign * ratio(b.med-a.med, a.med)
	allBetter, allWorse := b.hi < a.lo, b.lo > a.hi
	if d.Better == "higher" {
		allBetter, allWorse = allWorse, allBetter
	}
	switch {
	case max(a.spread(), b.spread()) > d.Bound:
		if allBetter {
			return "better"
		}
		if allWorse && change > d.Bound {
			return "worse"
		}
		return "unresolved"
	case change > d.Bound:
		return "worse"
	case -change > a.spread():
		return "better"
	}
	return "same"
}

// compareMain implements `benchmark compare [-force] <setA> <setB>`: per
// workload and end-to-end metric it prints both medians and quartiles, the
// bound and a verdict. It returns 1 on any "worse", on a higher failed share,
// or when the sets' provenance differs without -force.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	force := fs.Bool("force", false, "compare even if the two sets' provenance differs")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-force] <setA.json> <setB.json>")
		return 2
	}
	a, err := readSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(w, "A: %s commit %s\nB: %s commit %s\n", fs.Arg(0), a.Provenance.Commit, fs.Arg(1), b.Provenance.Commit)
	if diffs := a.Provenance.differs(b.Provenance); len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintf(w, "provenance differs: %s\n", d)
		}
		if !*force {
			fmt.Fprintln(w, "refusing to compare sets measured under different conditions; -force overrides")
			return 1
		}
	}

	status := 0
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA q1/median/q3\tB q1/median/q3\tchange\tbound\tverdict")
	for _, wl := range workloads {
		ra, rb := runsOf(a, wl.Name), runsOf(b, wl.Name)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := sideOf(valuesOf(ra, d.Name)), sideOf(valuesOf(rb, d.Name))
			v := verdict(sa, sb, d)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g/%.4g/%.4g\t%.4g/%.4g/%.4g\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, d.Name, d.Unit, sa.q1, sa.med, sa.q3, sb.q1, sb.med, sb.q3,
				100*ratio(sb.med-sa.med, sa.med), 100*d.Bound, v)
		}
		fa, fb := failedShare(ra), failedShare(rb)
		v := "same"
		if fb > fa {
			v, status = "worse", 1
		}
		fmt.Fprintf(tw, "%s\tfailed_share\tratio\t%.4g\t%.4g\t\t0\t%s\n", wl.Name, fa, fb, v)
	}
	tw.Flush()
	return status
}

func runsOf(set resultSet, workload string) []*runResult {
	var out []*runResult
	for _, r := range set.Runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(runs []*runResult, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i], _ = r.metric(metric)
	}
	return out
}

func failedShare(runs []*runResult) float64 {
	var attempted, failed int
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return ratio(float64(failed), float64(attempted))
}
