package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"fasttrack/internal/core"
	"fasttrack/internal/matrixgen"
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

// traceConfigs returns the replays of one trace on an n×n system: Hoplite,
// then the FastTrack configurations tried at that width (the paper reports
// the best configuration per benchmark).
func traceConfigs(n int) []core.Config {
	cands := []core.Config{core.Hoplite(n)}
	if n >= 4 {
		cands = append(cands, core.FastTrack(n, 2, 1))
	}
	if n >= 8 {
		cands = append(cands, core.FastTrack(n, 2, 2))
	}
	if len(cands) == 1 {
		cands = append(cands, core.FastTrack(n, 1, 1))
	}
	return cands
}

// speedupPoint is the Fig 15 bar of one trace: res[i] replayed it on cfgs[i],
// in traceConfigs order, and the fastest FastTrack replay is set against
// Hoplite's.
func speedupPoint(name string, n int, cfgs []core.Config, res []sim.Result) SpeedupPoint {
	pt := SpeedupPoint{Benchmark: name, PEs: n * n, HopliteCycles: res[0].Cycles}
	for i := 1; i < len(cfgs); i++ {
		if pt.BestFTCycles == 0 || res[i].Cycles < pt.BestFTCycles {
			pt.BestFTCycles, pt.BestFTConfig = res[i].Cycles, cfgs[i].String()
		}
	}
	pt.Speedup = float64(pt.HopliteCycles) / float64(pt.BestFTCycles)
	return pt
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
// (worker pool + result cache). Like runner.DoSynthetic, it answers a job the
// cache holds completely inline and schedules only the rest, one ForEach job
// each, so a warm sweep schedules nothing.
func runTraceJobs(sc Scale, jobs []traceJob) ([]SpeedupPoint, error) {
	pts := make([]SpeedupPoint, len(jobs))
	var misses []int
	for i, job := range jobs {
		var hit bool
		if pts[i], hit = sc.cachedTraceJob(job); !hit {
			misses = append(misses, i)
		}
	}
	err := sc.orch().ForEach(context.Background(), len(misses), func(ctx context.Context, m int) error {
		i := misses[m]
		var err error
		pts[i], err = sc.runTraceJob(ctx, jobs[i])
		return err
	})
	for i, job := range jobs {
		if job.pes > 0 {
			pts[i].PEs = job.pes
		}
	}
	return pts, err
}

// memoKey is the cache key of a job's `tracehdr` memo (DESIGN.md §9), "" when
// the job has no memo to consult.
func (s Scale) memoKey(job traceJob) string {
	if s.orch().Cache == nil || job.spec == "" {
		return ""
	}
	return runner.RawKey("tracehdr", job.spec)
}

// cachedTraceJob answers a job from the cache alone: its header memo and
// every replay must hit.
func (s Scale) cachedTraceJob(job traceJob) (SpeedupPoint, bool) {
	var hdr trace.Header
	memoKey := s.memoKey(job)
	if memoKey == "" || !s.orch().Cache.Get(memoKey, &hdr) {
		return SpeedupPoint{}, false
	}
	cfgs := traceConfigs(job.n)
	keys, res, outs := make([]string, len(cfgs)), make([]sim.Result, len(cfgs)), make([]any, len(cfgs))
	for i, cfg := range cfgs {
		keys[i], outs[i] = runner.TraceHeaderKey(cfg, hdr, core.TraceOptions{}), &res[i]
	}
	if !s.orch().Lookup(keys, outs) {
		return SpeedupPoint{}, false
	}
	return speedupPoint(hdr.Name, job.n, cfgs, res), true
}

// errStaleMemo: the generated trace is not the one the memoized header named.
var errStaleMemo = errors.New("experiments: stale trace-header memo")

// runTraceJob replays one job's trace on every traceConfigs system, keyed by
// the trace's header: its content fingerprint, so a recorded FTT1 trace
// shares entries with the in-memory generation of the same trace. The trace
// is generated (once) only when a replay has to run. The header is the
// cache's `tracehdr` memo (DESIGN.md §9; plain Get/Put — a header is no
// simulation for runner.Do to count) or, without one, comes from generating
// first. A generated trace that contradicts the memo rewrites it and re-keys
// the job.
func (s Scale) runTraceJob(ctx context.Context, job traceJob) (SpeedupPoint, error) {
	var genHdr trace.Header
	generate := sync.OnceValues(func() (trace.Source, error) {
		src, err := job.gen()
		if err == nil {
			genHdr = src.Header()
		}
		return src, err
	})
	cache, memoKey := s.orch().Cache, s.memoKey(job)
	cfgs := traceConfigs(job.n)
	res := make([]sim.Result, len(cfgs))
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
		var err error
		for i, cfg := range cfgs {
			res[i], _, err = runner.Do(ctx, s.orch(), runner.TraceHeaderKey(cfg, hdr, core.TraceOptions{}), func() (sim.Result, error) {
				src, err := generate()
				if err == nil && genHdr != hdr {
					err = errStaleMemo
				}
				if err != nil {
					return sim.Result{}, err
				}
				return core.RunTrace(ctx, cfg, src, core.TraceOptions{})
			})
			if err != nil {
				err = fmt.Errorf("%s on %s %dx%d: %w", hdr.Name, cfg, job.n, job.n, err)
				break
			}
		}
		if err == nil {
			return speedupPoint(hdr.Name, job.n, cfgs, res), nil
		}
		if !memo || !errors.Is(err, errStaleMemo) {
			return SpeedupPoint{}, err
		}
	}
}

// The Fig 15 inputs are fixed-seed constants, so each suite is generated once
// per process: regenerating them on every call dominated a warm sweep, which
// otherwise only reads the cache. Trace generators only read them.
var (
	spmvInputs     = sync.OnceValue(spmv.Benchmarks)
	graphInputs    = sync.OnceValue(graphwl.Benchmarks)
	dataflowInputs = sync.OnceValue(dataflow.Benchmarks)
)

// traceFigure is one Fig 15 suite: a row per job, its trace's speedup.
func traceFigure(id, title, heading string, jobs func(sc Scale) []traceJob) *Figure[SpeedupPoint] {
	return &Figure[SpeedupPoint]{
		ID: id, Title: title, Heading: heading,
		Traces:  jobs,
		Data:    func(sc Scale) ([]SpeedupPoint, error) { return runTraceJobs(sc, jobs(sc)) },
		Columns: []string{"Benchmark", "PEs", "HopliteCycles", "BestFT", "FTCycles", "Speedup"},
		Row: func(p SpeedupPoint) []any {
			return []any{p.Benchmark, p.PEs, p.HopliteCycles, p.BestFTConfig, p.BestFTCycles, fmt.Sprintf("%.2fx", p.Speedup)}
		},
	}
}

// The four Fig 15 trace suites.
var (
	Fig15a = traceFigure("fig15a", "SpMV accelerator trace speedups",
		"Sparse matrix-vector multiplication trace speedups", spmvJobs)
	Fig15b = traceFigure("fig15b", "Graph analytics trace speedups",
		"Graph analytics trace speedups", graphJobs)
	Fig15c = traceFigure("fig15c", "Token LU dataflow trace speedups",
		"Token LU factorization dataflow trace speedups", dataflowJobs)
	Fig15d = traceFigure("fig15d", "Multiprocessor overlay trace speedups",
		"Multiprocessor overlay (PARSEC-like) trace speedups, 32 threads", overlayJobs)
)

// spmvJobs lists the SpMV suite across PE counts.
func spmvJobs(sc Scale) []traceJob {
	mats := spmvInputs()
	var jobs []traceJob
	for _, m := range mats[:sc.capBenchmarks(len(mats))] {
		for _, n := range sc.sizes(2, 4, 8, 16) {
			jobs = append(jobs, traceJob{n: n, spec: spmv.Spec(m, n, n, spmv.Options{}), gen: func() (trace.Source, error) {
				return spmv.Trace(m, n, n, spmv.Options{})
			}})
		}
	}
	return jobs
}

// graphJobs lists the graph analytics suite.
func graphJobs(sc Scale) []traceJob {
	benches := graphInputs()
	var jobs []traceJob
	for _, b := range benches[:sc.capBenchmarks(len(benches))] {
		for _, n := range sc.sizes(4, 8, 16) {
			part := b.PartitionFor(n * n)
			jobs = append(jobs, traceJob{n: n, spec: graphwl.Spec(b.Graph, part, n, n, graphwl.Options{}), gen: func() (trace.Source, error) {
				return graphwl.Trace(b.Graph, part, n, n, graphwl.Options{})
			}})
		}
	}
	return jobs
}

// dataflowJobs lists the Token LU dataflow suite (latency-bound).
func dataflowJobs(sc Scale) []traceJob {
	mats := dataflowInputs()
	var jobs []traceJob
	for _, m := range mats[:sc.capBenchmarks(len(mats))] {
		// The fill pattern depends on the matrix alone: the first job to
		// generate computes it for every grid size.
		fill := sync.OnceValue(func() [][]int32 { return matrixgen.SymbolicLU(m) })
		for _, n := range sc.sizes(8, 16) {
			jobs = append(jobs, traceJob{n: n, spec: dataflow.Spec(m, n, n, dataflow.Options{}), gen: func() (trace.Source, error) {
				return dataflow.TraceFill(m, fill(), n, n, dataflow.Options{})
			}})
		}
	}
	return jobs
}

// overlayJobs lists the multiprocessor overlay suite: 32 active threads
// mapped onto the lower half of an 8×8 overlay NoC.
func overlayJobs(sc Scale) []traceJob {
	benches := overlay.Benchmarks()
	n := sc.capN(8)
	active := overlay.ActivePEs(n)
	var jobs []traceJob
	for _, b := range benches[:sc.capBenchmarks(len(benches))] {
		jobs = append(jobs, traceJob{n: n, pes: active, spec: overlay.Spec(b, n, n, active, sc.Seed), gen: func() (trace.Source, error) {
			return overlay.Trace(b, n, n, active, sc.Seed)
		}})
	}
	return jobs
}
