package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/sim"
	"fasttrack/internal/trace"
	"fasttrack/internal/traffic"
	"fasttrack/internal/workloads/dataflow"
	"fasttrack/internal/workloads/graphwl"
	"fasttrack/internal/workloads/overlay"
	"fasttrack/internal/workloads/spmv"
)

// engineJob is one simulation of an engine-* pass: a synthetic run, or a
// trace replay from memory (tr) or streamed from an FTT1 file (path).
type engineJob struct {
	label string
	cfg   core.Config
	syn   core.SyntheticOptions
	tr    *trace.Trace
	path  string
	// family names the router package whose step_ns_per_cycle this job
	// reports ("" for none): the N=16 RANDOM job of each family.
	family string
	// twin is the index of the in-memory replay a streamed replay must match.
	twin int
}

func (j *engineJob) isTrace() bool { return j.tr != nil || j.path != "" }

// engineInst is engine-sat or engine-idle opened for one run.
type engineInst struct {
	e   *env
	sat bool
	// jobs is rebuilt by setup; want holds each job's statistics from the
	// first untraced pass, which later passes and the external loop must
	// reproduce.
	jobs []engineJob
	want []simStats
}

func openEngine(e *env, sat bool) (instance, error) {
	return &engineInst{e: e, sat: sat}, nil
}

func (in *engineInst) close() error { return nil }

// setup builds the job list, generates and encodes the traces engine-idle
// replays, and runs a tenth-size warm-up of every synthetic job.
func (in *engineInst) setup() error {
	in.jobs = in.jobs[:0]
	// Each synthetic job's traffic seed derives from the run seed and the
	// job's position.
	add := func(label string, cfg core.Config, pattern string, rate float64, quota int, family string) {
		in.jobs = append(in.jobs, engineJob{
			label: label, cfg: cfg, family: family, twin: -1,
			syn: core.SyntheticOptions{
				Pattern: pattern, Rate: rate, PacketsPerPE: quota,
				Seed: in.e.seed*100 + uint64(len(in.jobs)),
			},
		})
	}
	n, quota, bigQuota := 16, 1000, 250
	if in.e.smoke {
		n, quota, bigQuota = 8, 50, 50
	}
	switch {
	case in.sat:
		add("hoplite-random", core.Hoplite(n), "RANDOM", 1.0, quota, "hoplite")
		add("ft-d2r1-random", core.FastTrack(n, 2, 1), "RANDOM", 1.0, quota, "fasttrack")
		add("hoplite-2x-random", core.MultiChannel(n, 2), "RANDOM", 1.0, quota, "multichannel")
		if !in.e.smoke {
			add("ft-d2r2-transpose", core.FastTrack(n, 2, 2), "TRANSPOSE", 1.0, quota, "")
			add("ft-d4r2-inject-random", core.FastTrack(n, 4, 2).WithVariant(core.VariantInject), "RANDOM", 1.0, quota, "")
			add("hoplite-bitcompl", core.Hoplite(n), "BITCOMPL", 1.0, quota, "")
			add("hoplite64-random", core.Hoplite(64), "RANDOM", 1.0, 40, "")
			add("ft1024-d2r1-random", core.FastTrack(32, 2, 1), "RANDOM", 1.0, bigQuota, "")
		}
	default:
		add("hoplite-random", core.Hoplite(n), "RANDOM", 0.01, quota, "hoplite")
		add("ft-d2r1-random", core.FastTrack(n, 2, 1), "RANDOM", 0.01, quota, "fasttrack")
		add("hoplite-2x-random", core.MultiChannel(n, 2), "RANDOM", 0.01, quota, "multichannel")
		if !in.e.smoke {
			add("ft-d2r1-local", core.FastTrack(n, 2, 1), "LOCAL", 0.02, quota, "")
			add("hoplite-transpose", core.Hoplite(n), "TRANSPOSE", 0.05, quota, "")
			add("ft1024-d2r1-random", core.FastTrack(32, 2, 1), "RANDOM", 0.01, bigQuota, "")
		}
		if err := in.addReplays(n); err != nil {
			return err
		}
	}
	for _, j := range in.jobs {
		if j.isTrace() {
			continue
		}
		warm := j.syn
		warm.PacketsPerPE = max(warm.PacketsPerPE/10, 1)
		if _, err := core.RunSynthetic(context.Background(), j.cfg, warm); err != nil {
			return fmt.Errorf("warm-up %s: %w", j.label, err)
		}
	}
	return nil
}

// addReplays generates the replayed traces, writes each as an FTT1 file in
// the scratch directory, and appends four replays per trace: Hoplite and
// FT(N²,2,1), each from memory and streamed.
func (in *engineInst) addReplays(n int) error {
	counts := [4]int{3, 2, 2, 1} // dataflow, spmv, graphwl, overlay
	if in.e.smoke {
		counts = [4]int{1, 0, 0, 1}
	}
	var traces []*trace.Trace
	gen := func(tr *trace.Trace, err error) error {
		if err == nil {
			traces = append(traces, tr)
		}
		return err
	}
	for _, m := range dataflow.Benchmarks()[:counts[0]] {
		if err := gen(dataflow.Trace(m, n, n, dataflow.Options{})); err != nil {
			return err
		}
	}
	for _, m := range spmv.Benchmarks()[:counts[1]] {
		if err := gen(spmv.Trace(m, n, n, spmv.Options{})); err != nil {
			return err
		}
	}
	for _, b := range graphwl.Benchmarks()[:counts[2]] {
		if err := gen(graphwl.Trace(b.Graph, b.PartitionFor(n*n), n, n, graphwl.Options{})); err != nil {
			return err
		}
	}
	for _, b := range overlay.Benchmarks()[:counts[3]] {
		if err := gen(overlay.Trace(b, n, n, n*n/2, in.e.seed)); err != nil {
			return err
		}
	}
	for i, tr := range traces {
		path := filepath.Join(in.e.tmp, fmt.Sprintf("replay-%d.ftt", i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := trace.EncodeBinary(f, tr); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		for _, cfg := range []core.Config{core.Hoplite(n), core.FastTrack(n, 2, 1)} {
			label := fmt.Sprintf("%s@%s", tr.Name, cfg)
			in.jobs = append(in.jobs,
				engineJob{label: label + "/mem", cfg: cfg, tr: tr, twin: -1},
				engineJob{label: label + "/stream", cfg: cfg, path: path, twin: len(in.jobs)})
		}
	}
	return nil
}

// run executes one job the way a user of the simulator would.
func (j *engineJob) run() (sim.Result, error) {
	ctx := context.Background()
	switch {
	case j.tr != nil:
		return core.RunTrace(ctx, j.cfg, j.tr, core.TraceOptions{})
	case j.path != "":
		r, err := trace.Open(j.path)
		if err != nil {
			return sim.Result{}, err
		}
		defer r.Close()
		return core.RunTrace(ctx, j.cfg, r, core.TraceOptions{})
	}
	return core.RunSynthetic(ctx, j.cfg, j.syn)
}

// loop executes one job through the benchmark's own cycle loop, building
// the network and workload exactly as core.RunSynthetic / core.RunTrace do.
func (j *engineJob) loop(phase int64) (phases, error) {
	net, err := j.cfg.Build()
	if err != nil {
		return phases{}, err
	}
	var wl sim.Workload
	var stream *trace.Stream
	switch {
	case j.tr != nil:
		wl, err = trace.NewWorkload(j.tr, net.Width(), net.Height())
	case j.path != "":
		r, oerr := trace.Open(j.path)
		if oerr != nil {
			return phases{}, oerr
		}
		defer r.Close()
		stream, err = trace.NewStream(r, net.Width(), net.Height(), trace.StreamOptions{})
		wl = stream
	default:
		var pat traffic.Pattern
		if pat, err = traffic.ByName(j.syn.Pattern); err == nil {
			wl = traffic.NewSynthetic(net.Width(), net.Height(), pat, j.syn.Rate, j.syn.PacketsPerPE, j.syn.Seed)
		}
	}
	if err != nil {
		return phases{}, err
	}
	ph, err := phaseLoop(net, wl, phase)
	// A failed stream reports Done to stop the loop; surface its error.
	if err == nil && stream != nil {
		err = stream.Err()
	}
	return ph, err
}

// pass runs every job once on one goroutine. Untraced, each job goes through
// core.RunSynthetic / core.RunTrace; traced, through phaseLoop, whose
// statistics must equal the untraced ones.
func (in *engineInst) pass(rec *recorder) (*passOut, error) {
	out := &passOut{attempted: len(in.jobs), jobs: len(in.jobs), layer: map[string]float64{}}
	passSpan := rec.begin(0, 0, "", "pass")
	h := sha256.New()
	got := make([]simStats, len(in.jobs))
	var (
		synth, replay   phases // sums over the synthetic and the replay jobs
		cycles, pkts    int64
		inflightSum     int64
		memNS, streamNS time.Duration
		reg             = beginRegion()
	)
	for i := range in.jobs {
		j := &in.jobs[i]
		traceID := fmt.Sprintf("job-%02d", i)
		jobSpan := rec.begin(passSpan, 0, traceID, j.label)
		t0 := time.Now()
		if rec == nil {
			res, err := j.run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", j.label, err)
			}
			got[i] = statsOf(res)
		} else {
			ph, err := j.loop(int64(i))
			if err != nil {
				return nil, fmt.Errorf("%s (external loop): %w", j.label, err)
			}
			got[i] = ph.simStats
			recordPhases(rec, jobSpan, traceID, t0, j, &ph, out.layer)
			sum := &synth
			if j.isTrace() {
				sum = &replay
			}
			sum.Cycles += ph.Cycles
			sum.idleCycles += ph.idleCycles
			sum.timedCycles += ph.timedCycles
			sum.timedPkts += ph.timedPkts
			sum.offerNS += ph.offerNS
			sum.injectNS += ph.injectNS
			sum.deliverNS += ph.deliverNS
			inflightSum += ph.inflightSum
		}
		d := time.Since(t0)
		rec.end(jobSpan, map[string]any{"cycles": got[i].Cycles, "packets": got[i].Delivered})
		out.opsMS = append(out.opsMS, float64(d.Nanoseconds())/1e6)
		cycles += got[i].Cycles
		pkts += got[i].Delivered
		fmt.Fprintf(h, "%s %+v\n", j.label, got[i])
		if j.tr != nil {
			memNS += d
		} else if j.path != "" {
			streamNS += d
		}
	}
	reg.end(out)
	rec.end(passSpan, map[string]any{"jobs": len(in.jobs), "cycles": cycles, "packets": pkts})
	out.digest = fmt.Sprintf("%x", h.Sum(nil))

	// Cross-checks. A mismatch here means a number of this pass describes a
	// different computation than the one it is filed under.
	if in.want == nil {
		in.want = got
	}
	for i := range in.jobs {
		j := &in.jobs[i]
		if got[i] != in.want[i] {
			out.fail("%s: statistics differ from the first pass (external loop or rerun != sim.Run): got %+v want %+v", j.label, got[i], in.want[i])
		}
		if j.twin >= 0 && got[i] != got[j.twin] {
			out.fail("%s: streamed replay differs from the in-memory replay", j.label)
		}
	}

	// Per-layer values.
	var total simStats
	for _, s := range got {
		total.Injected += s.Injected
		total.Delivered += s.Delivered
		total.Counters.Add(&s.Counters)
	}
	c := &total.Counters
	hops := c.ShortTraversals + c.ExpressTraversals
	out.layer["noc.hops_per_pkt"] = ratio(float64(hops), float64(total.Delivered))
	out.layer["noc.deflections_per_pkt"] = ratio(float64(c.TotalDeflections()), float64(total.Delivered))
	out.layer["noc.express_share"] = ratio(float64(c.ExpressTraversals), float64(hops))
	out.layer["noc.accept_share"] = ratio(float64(total.Injected), float64(total.Injected+c.InjectionStalls))
	if rec == nil {
		out.layer["sim.mpkts_per_s"] = float64(pkts) / out.wall.Seconds() / 1e6
		out.layer["sim.mallocs_per_cycle"] = ratio(float64(out.mallocs), float64(cycles))
		if memNS > 0 {
			out.layer["trace.stream_vs_mem_ratio"] = float64(streamNS) / float64(memNS)
		}
		return out, nil
	}
	out.layer["noc.mean_inflight"] = ratio(float64(inflightSum), float64(cycles))
	out.layer["traffic.offer_ns_per_cycle"] = synth.perCycle(synth.offerNS)
	out.layer["traffic.inject_ns_per_cycle"] = synth.perCycle(synth.injectNS)
	out.layer["traffic.idle_cycle_share"] = ratio(float64(synth.idleCycles), float64(synth.Cycles))
	both := synth.deliverNS + replay.deliverNS
	out.layer["sim.deliver_ns_per_pkt"] = ratio(both, float64(synth.timedPkts+replay.timedPkts))
	if replay.Cycles > 0 {
		out.layer["trace.offer_ns_per_cycle"] = replay.perCycle(replay.offerNS)
		out.layer["trace.deliver_ns_per_pkt"] = ratio(replay.deliverNS, float64(replay.timedPkts))
		out.layer["trace.idle_cycle_share"] = ratio(float64(replay.idleCycles), float64(replay.Cycles))
	}
	return out, nil
}

// recordPhases adds one job's phase aggregates to the trace as child spans
// laid end to end from the job's start (they are sums over sampled cycles
// scaled to the whole job, not real intervals), and files the job's Step
// cost under its router family.
func recordPhases(rec *recorder, jobSpan int, traceID string, t0 time.Time, j *engineJob, ph *phases, layer map[string]float64) {
	at := t0
	for _, p := range []struct {
		name string
		ns   float64
	}{{"offer", ph.offerNS}, {"step", ph.stepNS}, {"inject", ph.injectNS}, {"deliver", ph.deliverNS}} {
		perCycle := ph.perCycle(p.ns)
		dur := time.Duration(perCycle * float64(ph.Cycles))
		rec.add(jobSpan, 0, traceID, p.name, at, dur, map[string]any{
			"ns_per_cycle": perCycle, "cycles": ph.Cycles, "packets": ph.Delivered,
			"timed_cycles": ph.timedCycles,
		})
		at = at.Add(dur)
	}
	if j.family != "" {
		layer[j.family+".step_ns_per_cycle"] = ph.perCycle(ph.stepNS)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
