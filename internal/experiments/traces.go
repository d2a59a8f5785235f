package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"fasttrack/internal/core"
	"fasttrack/internal/runner"
	"fasttrack/internal/sim"
	"fasttrack/internal/trace"
	"fasttrack/internal/workloads/dataflow"
	"fasttrack/internal/workloads/graphwl"
	"fasttrack/internal/workloads/overlay"
	"fasttrack/internal/workloads/spmv"
)

// SpeedupPoint is one bar of the paper's Fig 15: workload completion-time
// speedup of the best FastTrack configuration over baseline Hoplite at the
// same PE count.
type SpeedupPoint struct {
	Benchmark     string
	PEs           int
	HopliteCycles int64
	BestFTCycles  int64
	BestFTConfig  string
	Speedup       float64
}

// ftCandidates returns the FastTrack configurations tried per torus width;
// the paper reports the best configuration per benchmark.
func ftCandidates(n int) []core.Config {
	var cands []core.Config
	if n >= 4 {
		cands = append(cands, core.FastTrack(n, 2, 1))
	}
	if n >= 8 {
		cands = append(cands, core.FastTrack(n, 2, 2))
	}
	if len(cands) == 0 {
		cands = append(cands, core.FastTrack(n, 1, 1))
	}
	return cands
}

// traceSpeedup measures one benchmark trace, known by its header, on Hoplite
// and the FastTrack candidates. Replays are cached by the header's content
// fingerprint (so a recorded FTT1 trace shares entries with the in-memory
// generation of the same trace); src runs only for a replay the cache misses.
func traceSpeedup(ctx context.Context, sc Scale, hdr trace.Header, n int, src func() (trace.Source, error)) (SpeedupPoint, error) {
	replay := func(cfg core.Config) (sim.Result, error) {
		return runner.Do(ctx, sc.orch(), runner.TraceHeaderKey(cfg, hdr, core.TraceOptions{}), func() (sim.Result, error) {
			tr, err := src()
			if err != nil {
				return sim.Result{}, err
			}
			return core.RunTrace(ctx, cfg, tr, core.TraceOptions{})
		})
	}
	pt := SpeedupPoint{Benchmark: hdr.Name, PEs: n * n}
	hop, err := replay(core.Hoplite(n))
	if err != nil {
		return pt, fmt.Errorf("%s on Hoplite %dx%d: %w", hdr.Name, n, n, err)
	}
	pt.HopliteCycles = hop.Cycles
	for _, cfg := range ftCandidates(n) {
		res, err := replay(cfg)
		if err != nil {
			return pt, fmt.Errorf("%s on %s: %w", hdr.Name, cfg, err)
		}
		if pt.BestFTCycles == 0 || res.Cycles < pt.BestFTCycles {
			pt.BestFTCycles = res.Cycles
			pt.BestFTConfig = cfg.String()
		}
	}
	pt.Speedup = float64(pt.HopliteCycles) / float64(pt.BestFTCycles)
	return pt, nil
}

func renderSpeedups(w io.Writer, pts []SpeedupPoint) error {
	t := newTable(w, "Benchmark", "PEs", "HopliteCycles", "BestFT", "FTCycles", "Speedup")
	for _, p := range pts {
		t.row(p.Benchmark, p.PEs, p.HopliteCycles, p.BestFTConfig, p.BestFTCycles,
			fmt.Sprintf("%.2fx", p.Speedup))
	}
	return t.flush()
}

// fig15Sizes filters the torus widths a suite sweeps by the scale cap.
func fig15Sizes(sc Scale, sizes ...int) []int {
	var out []int
	for _, n := range sizes {
		if sc.MaxN == 0 || n <= sc.MaxN {
			out = append(out, n)
		}
	}
	return out
}

// traceJob generates one benchmark trace for one system size. gen may
// return any trace.Source — the in-memory generators return a *trace.Trace;
// a job replaying a pre-recorded FTT1 file would return a *trace.Reader.
// spec is the generator's Spec for gen's arguments, the key the trace's
// header is memoized under ("" = no memo).
type traceJob struct {
	n    int
	pes  int // reported PE count override (0 = n*n)
	spec string
	gen  func() (trace.Source, error)
}

// runTraceJobs measures trace speedups across the scale's orchestrator
// (worker pool + result cache).
func runTraceJobs(sc Scale, jobs []traceJob) ([]SpeedupPoint, error) {
	pts := make([]SpeedupPoint, len(jobs))
	err := sc.forEachParallel(len(jobs), func(ctx context.Context, i int) error {
		pt, err := sc.runTraceJob(ctx, jobs[i])
		if jobs[i].pes > 0 {
			pt.PEs = jobs[i].pes
		}
		pts[i] = pt
		return err
	})
	return pts, err
}

// errStaleMemo: the generated trace is not the one the memoized header named.
var errStaleMemo = errors.New("experiments: stale trace-header memo")

// runTraceJob keys one job's replays by its trace header and generates the
// trace (once) only when a replay has to run. The header is the cache's
// `tracehdr` memo (DESIGN.md §9; plain Get/Put — a header is no simulation for
// runner.Do to count) or, without one, comes from generating first. A
// generated trace that contradicts the memo rewrites it and re-keys the job.
func (s Scale) runTraceJob(ctx context.Context, job traceJob) (SpeedupPoint, error) {
	var genHdr trace.Header
	generate := sync.OnceValues(func() (trace.Source, error) {
		src, err := job.gen()
		if err == nil {
			genHdr = src.Header()
		}
		return src, err
	})
	cache, memoKey := s.orch().Cache, ""
	if cache != nil && job.spec != "" {
		memoKey = runner.RawKey("tracehdr", job.spec)
	}
	var hdr trace.Header
	for memo := memoKey != "" && cache.Get(memoKey, &hdr); ; memo = false {
		if !memo {
			if _, err := generate(); err != nil {
				return SpeedupPoint{}, err
			}
			if hdr = genHdr; memoKey != "" {
				_ = cache.Put(memoKey, hdr) // best-effort, like runner.Do's result writes
			}
		}
		pt, err := traceSpeedup(ctx, s, hdr, job.n, func() (trace.Source, error) {
			src, err := generate()
			if err == nil && genHdr != hdr {
				err = errStaleMemo
			}
			return src, err
		})
		if !memo || !errors.Is(err, errStaleMemo) {
			return pt, err
		}
	}
}

// Fig15aData runs the SpMV suite across PE counts.
func Fig15aData(sc Scale) ([]SpeedupPoint, error) {
	mats := spmv.Benchmarks()
	mats = mats[:sc.capBenchmarks(len(mats))]
	var jobs []traceJob
	for _, m := range mats {
		m := m
		for _, n := range fig15Sizes(sc, 2, 4, 8, 16) {
			n := n
			jobs = append(jobs, traceJob{n: n, spec: spmv.Spec(m, n, n, spmv.Options{}), gen: func() (trace.Source, error) {
				return spmv.Trace(m, n, n, spmv.Options{})
			}})
		}
	}
	return runTraceJobs(sc, jobs)
}

// RunFig15a renders the SpMV speedups.
func RunFig15a(w io.Writer, sc Scale) error {
	header(w, "fig15a", "Sparse matrix-vector multiplication trace speedups")
	pts, err := Fig15aData(sc)
	if err != nil {
		return err
	}
	return renderSpeedups(w, pts)
}

// Fig15bData runs the graph analytics suite.
func Fig15bData(sc Scale) ([]SpeedupPoint, error) {
	benches := graphwl.Benchmarks()
	benches = benches[:sc.capBenchmarks(len(benches))]
	var jobs []traceJob
	for _, b := range benches {
		b := b
		for _, n := range fig15Sizes(sc, 4, 8, 16) {
			n := n
			part := b.PartitionFor(n * n)
			jobs = append(jobs, traceJob{n: n, spec: graphwl.Spec(b.Graph, part, n, n, graphwl.Options{}), gen: func() (trace.Source, error) {
				return graphwl.Trace(b.Graph, part, n, n, graphwl.Options{})
			}})
		}
	}
	return runTraceJobs(sc, jobs)
}

// RunFig15b renders the graph analytics speedups.
func RunFig15b(w io.Writer, sc Scale) error {
	header(w, "fig15b", "Graph analytics trace speedups")
	pts, err := Fig15bData(sc)
	if err != nil {
		return err
	}
	return renderSpeedups(w, pts)
}

// Fig15cData runs the Token LU dataflow suite (latency-bound).
func Fig15cData(sc Scale) ([]SpeedupPoint, error) {
	mats := dataflow.Benchmarks()
	mats = mats[:sc.capBenchmarks(len(mats))]
	var jobs []traceJob
	for _, m := range mats {
		m := m
		for _, n := range fig15Sizes(sc, 8, 16) {
			n := n
			jobs = append(jobs, traceJob{n: n, spec: dataflow.Spec(m, n, n, dataflow.Options{}), gen: func() (trace.Source, error) {
				return dataflow.Trace(m, n, n, dataflow.Options{})
			}})
		}
	}
	return runTraceJobs(sc, jobs)
}

// RunFig15c renders the LU dataflow speedups.
func RunFig15c(w io.Writer, sc Scale) error {
	header(w, "fig15c", "Token LU factorization dataflow trace speedups")
	pts, err := Fig15cData(sc)
	if err != nil {
		return err
	}
	return renderSpeedups(w, pts)
}

// Fig15dData runs the multiprocessor overlay suite: 32 active threads
// mapped onto the lower half of an 8×8 overlay NoC.
func Fig15dData(sc Scale) ([]SpeedupPoint, error) {
	benches := overlay.Benchmarks()
	benches = benches[:sc.capBenchmarks(len(benches))]
	n := sc.capN(8)
	active := 32
	if n*n/2 < active {
		active = n * n / 2
	}
	var jobs []traceJob
	for _, b := range benches {
		b := b
		jobs = append(jobs, traceJob{n: n, pes: active, spec: overlay.Spec(b, n, n, active, sc.Seed), gen: func() (trace.Source, error) {
			return overlay.Trace(b, n, n, active, sc.Seed)
		}})
	}
	return runTraceJobs(sc, jobs)
}

// RunFig15d renders the overlay speedups.
func RunFig15d(w io.Writer, sc Scale) error {
	header(w, "fig15d", "Multiprocessor overlay (PARSEC-like) trace speedups, 32 threads")
	pts, err := Fig15dData(sc)
	if err != nil {
		return err
	}
	return renderSpeedups(w, pts)
}
