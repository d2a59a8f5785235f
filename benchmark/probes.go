package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"fasttrack/internal/cliflags"
	"fasttrack/internal/core"
	"fasttrack/internal/experiments"
	"fasttrack/internal/monitor"
	"fasttrack/internal/runner"
	"fasttrack/internal/sim"
	"fasttrack/internal/stats"
	"fasttrack/internal/trace"
	"fasttrack/internal/traffic"
	"fasttrack/internal/workloads/dataflow"
	"fasttrack/internal/workloads/graphwl"
	"fasttrack/internal/workloads/overlay"
	"fasttrack/internal/workloads/spmv"
)

// runProbes times the layers no workload's own spans can isolate: one small,
// fixed measurement per public entry point, the same on every workload, each
// under a span of its own. They run after the timed passes of a traced run.
func runProbes(e *env, rec *recorder) (map[string]float64, error) {
	p := &prober{e: e, rec: rec, out: map[string]float64{}, n: 16, quota: 200}
	if e.smoke {
		p.n, p.quota = 4, 20
	}
	p.root = rec.begin(0, 0, "probes", "probes")
	defer rec.end(p.root, nil)
	for _, probe := range []func() error{
		p.construction, p.engineKnobs, p.observers, p.traces, p.generators, p.cache, p.models, p.specs,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

type prober struct {
	e    *env
	rec  *recorder
	root int
	out  map[string]float64
	// n and quota size the probes' networks and synthetic jobs.
	n, quota int
	// encoded is the FTT1 form of the dataflow trace the traces probe built.
	encoded []byte
}

// timeMedian runs f reps times under one span and returns the median
// duration of a call.
func (p *prober) timeMedian(name string, reps int, f func() error) (time.Duration, error) {
	span := p.rec.begin(p.root, 0, "probes", name)
	defer p.rec.end(span, map[string]any{"reps": reps})
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// construction: what every job pays before its first cycle.
func (p *prober) construction() error {
	for _, c := range []struct {
		name string
		f    func() error
	}{
		{"traffic.new_us", func() error {
			_ = traffic.NewSynthetic(p.n, p.n, traffic.Random{}, 0.5, 1000, p.e.seed)
			return nil
		}},
		{"hoplite.build_us", func() error { _, err := core.Hoplite(p.n).Build(); return err }},
		{"fasttrack.build_us", func() error { _, err := core.FastTrack(p.n, 2, 1).Build(); return err }},
	} {
		d, err := p.timeMedian(c.name, 30, c.f)
		if err != nil {
			return err
		}
		p.out[c.name] = us(d)
	}
	d, err := p.timeMedian("core.batch_new_ms", 5, func() error {
		_, err := core.NewSyntheticBatch(core.Hoplite(p.n), 16)
		return err
	})
	p.out["core.batch_new_ms"] = ms(d)
	return err
}

// engineKnobs: the two wall-clock-only execution paths against the per-job
// sequential one. batch_speedup is the Fig-11 job list at N=8 run job by job
// over run as lockstep batches; shard2_speedup is one large saturated fabric
// on one shard over two.
func (p *prober) engineKnobs() error {
	ctx := context.Background()
	n := min(p.n, 8)
	sc := experiments.FullScale()
	var perJob, batched time.Duration
	for _, cfg := range []core.Config{core.FastTrack(n, 2, 1), core.FastTrack(n, 2, 2), core.Hoplite(n)} {
		var jobs []core.SyntheticOptions
		for _, pat := range []string{"BITCOMPL", "LOCAL", "RANDOM", "TRANSPOSE"} {
			for _, rate := range sc.Rates {
				jobs = append(jobs, core.SyntheticOptions{Pattern: pat, Rate: rate, PacketsPerPE: p.quota, Seed: p.e.seed})
			}
		}
		d, err := p.timeMedian("per-job "+cfg.String(), 1, func() error {
			for _, o := range jobs {
				if _, err := core.RunSynthetic(ctx, cfg, o); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		perJob += d
		d, err = p.timeMedian("batched "+cfg.String(), 1, func() error {
			sb, err := core.NewSyntheticBatch(cfg, 16)
			if err != nil {
				return err
			}
			_, err = sb.Run(ctx, jobs)
			return err
		})
		if err != nil {
			return err
		}
		batched += d
	}
	p.out["sim.batch_speedup"] = ratio(float64(perJob), float64(batched))

	big, opts := core.Hoplite(4*p.n), core.SyntheticOptions{Pattern: "RANDOM", Rate: 1.0, PacketsPerPE: p.quota / 5, Seed: p.e.seed}
	var shard [3]time.Duration
	for _, s := range []int{1, 2} {
		o := opts
		o.Shards = s
		d, err := p.timeMedian(fmt.Sprintf("shards=%d %s", s, big), 1, func() error {
			_, err := core.RunSynthetic(ctx, big, o)
			return err
		})
		if err != nil {
			return err
		}
		shard[s] = d
	}
	p.out["sim.shard2_speedup"] = ratio(float64(shard[1]), float64(shard[2]))
	return nil
}

// observers: the latency histogram's Add, and what attaching the daemon's
// monitor.Collector costs a class-B serve job.
func (p *prober) observers() error {
	h := stats.NewLatencyHistogram(1 << 20)
	const adds = 1 << 20
	d, err := p.timeMedian("stats.hist_add_ns", 3, func() error {
		x := int64(p.e.seed)
		for i := 0; i < adds; i++ {
			x = (x*6364136223846793005 + 1442695040888963407) & (1<<63 - 1)
			h.Add(x >> 48) // latencies up to 32k cycles, across the log buckets
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["stats.hist_add_ns"] = float64(d.Nanoseconds()) / adds

	cfg := core.FastTrack(min(p.n, 8), 2, 1)
	opts := core.SyntheticOptions{Pattern: "RANDOM", Rate: 0.5, PacketsPerPE: p.quota, Seed: p.e.seed}
	bare, err := p.timeMedian("class-B bare", 9, func() error {
		_, err := core.RunSynthetic(context.Background(), cfg, opts)
		return err
	})
	if err != nil {
		return err
	}
	observed, err := p.timeMedian("class-B with monitor.Collector", 9, func() error {
		o := opts
		o.Observer = monitor.NewCollector(cfg.N, cfg.N)
		_, err := core.RunSynthetic(context.Background(), cfg, o)
		return err
	})
	p.out["monitor.collector_ratio"] = ratio(float64(observed), float64(bare))
	return err
}

// traces: building, encoding, decoding and fingerprinting one dataflow trace.
func (p *prober) traces() error {
	tr, err := dataflow.Trace(dataflow.Benchmarks()[0], p.n, p.n, dataflow.Options{})
	if err != nil {
		return err
	}
	events := float64(len(tr.Events))
	d, err := p.timeMedian("trace.workload_build_ms", 5, func() error {
		_, err := trace.NewWorkload(tr, p.n, p.n)
		return err
	})
	if err != nil {
		return err
	}
	p.out["trace.workload_build_ms"] = ms(d)

	var buf bytes.Buffer
	d, err = p.timeMedian("trace.encode_ns_per_event", 5, func() error {
		buf.Reset()
		return trace.EncodeBinary(&buf, tr)
	})
	if err != nil {
		return err
	}
	p.out["trace.encode_ns_per_event"] = float64(d.Nanoseconds()) / events
	p.encoded = buf.Bytes()

	d, err = p.timeMedian("trace.decode_ns_per_event", 5, func() error {
		r, err := trace.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		cur, err := r.Open()
		if err != nil {
			return err
		}
		defer cur.Close()
		var ev trace.Event
		for {
			if ok, err := cur.Next(&ev); err != nil || !ok {
				return err
			}
		}
	})
	if err != nil {
		return err
	}
	p.out["trace.decode_ns_per_event"] = float64(d.Nanoseconds()) / events

	d, err = p.timeMedian("trace.fingerprint_ns_per_event", 5, func() error {
		_ = tr.Fingerprint()
		return nil
	})
	p.out["trace.fingerprint_ns_per_event"] = float64(d.Nanoseconds()) / events
	return err
}

// generators: every Fig-15 trace the paper sweep regenerates just to key it,
// at the torus widths FullScale uses.
func (p *prober) generators() error {
	var events int
	count := func(tr *trace.Trace, err error) error {
		if err == nil {
			events += len(tr.Events)
		}
		return err
	}
	widths := func(ns ...int) []int {
		var out []int
		for _, n := range ns {
			if n <= p.n {
				out = append(out, n)
			}
		}
		return out
	}
	d, err := p.timeMedian("workloads.gen_ms", 1, func() error {
		for _, m := range spmv.Benchmarks() {
			for _, n := range widths(2, 4, 8, 16) {
				if err := count(spmv.Trace(m, n, n, spmv.Options{})); err != nil {
					return err
				}
			}
		}
		for _, b := range graphwl.Benchmarks() {
			for _, n := range widths(4, 8, 16) {
				if err := count(graphwl.Trace(b.Graph, b.PartitionFor(n*n), n, n, graphwl.Options{})); err != nil {
					return err
				}
			}
		}
		for _, m := range dataflow.Benchmarks() {
			for _, n := range widths(8, 16) {
				if err := count(dataflow.Trace(m, n, n, dataflow.Options{})); err != nil {
					return err
				}
			}
		}
		n := min(p.n, 8)
		for _, b := range overlay.Benchmarks() {
			if err := count(overlay.Trace(b, n, n, min(32, n*n/2), p.e.seed)); err != nil {
				return err
			}
		}
		return nil
	})
	p.out["workloads.gen_ms"] = ms(d)
	p.out["workloads.gen_mevents_per_s"] = ratio(float64(events), d.Seconds()) / 1e6
	return err
}

// cache: Get, Put and entry size on a real sim.Result, key building, and the
// scheduler's cost per job with nothing to run.
func (p *prober) cache() error {
	cfg := core.Hoplite(p.n)
	opts := core.SyntheticOptions{Pattern: "RANDOM", Rate: 1.0, PacketsPerPE: p.quota, Seed: p.e.seed}
	res, err := core.RunSynthetic(context.Background(), cfg, opts)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(p.e.tmp, "probe-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cache, err := runner.NewCache(dir)
	if err != nil {
		return err
	}
	key := runner.SyntheticKey(cfg, opts)
	d, err := p.timeMedian("runner.cache_put_us", 30, func() error { return cache.Put(key, res) })
	if err != nil {
		return err
	}
	p.out["runner.cache_put_us"] = us(d)
	d, err = p.timeMedian("runner.cache_get_us", 30, func() error {
		var got sim.Result
		if !cache.Get(key, &got) {
			return fmt.Errorf("entry just written is missing")
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["runner.cache_get_us"] = us(d)
	fi, err := os.Stat(cache.Path(key))
	if err != nil {
		return err
	}
	p.out["runner.cache_entry_kb"] = float64(fi.Size()) / 1e3

	// A recorded trace's header carries its fingerprint, so keying it costs
	// no event scan; the scan is trace.fingerprint_ns_per_event.
	src, err := trace.NewReader(bytes.NewReader(p.encoded))
	if err != nil {
		return err
	}
	d, err = p.timeMedian("runner.key_us", 200, func() error {
		_ = runner.SyntheticKey(cfg, opts)
		_ = runner.TraceKey(cfg, src, core.TraceOptions{})
		return nil
	})
	if err != nil {
		return err
	}
	p.out["runner.key_us"] = us(d)

	const jobs = 10000
	orch := &runner.Orchestrator{Workers: p.e.procs}
	d, err = p.timeMedian("runner.foreach_us_per_job", 3, func() error {
		return orch.ForEach(context.Background(), jobs, func(context.Context, int) error { return nil })
	})
	p.out["runner.foreach_us_per_job"] = us(d) / jobs
	return err
}

// models: the FPGA cost, clock and wire models behind Tables I/II and
// Figs 1/4/6/10 — the bypass row for model-only changes.
func (p *prober) models() error {
	d, err := p.timeMedian("fpga.model_ms", 5, func() error {
		var buf bytes.Buffer
		for _, ex := range experiments.All() {
			if experimentGroup(ex.ID) == "fpga.model_ms" {
				if err := ex.Run(&buf, experiments.Scale{}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	p.out["fpga.model_ms"] = ms(d)
	return err
}

// specs: decoding and keying the daemon's job specs, over a request list.
func (p *prober) specs() error {
	list := requestList(p.e.seed, 200, p.e.smoke)
	decoded := make([]*cliflags.JobSpec, len(list))
	d, err := p.timeMedian("cliflags.decode_us", 5, func() error {
		for i, body := range list {
			var err error
			if decoded[i], err = cliflags.DecodeJobSpec(strings.NewReader(body)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["cliflags.decode_us"] = us(d) / float64(len(list))
	d, err = p.timeMedian("cliflags.key_us", 5, func() error {
		for _, s := range decoded {
			if _, err := s.CanonicalKey(); err != nil {
				return err
			}
		}
		return nil
	})
	p.out["cliflags.key_us"] = us(d) / float64(len(list))
	return err
}
