package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"time"

	"fasttrack/internal/experiments"
	"fasttrack/internal/runner"
)

// paperInst is paper-cold or paper-warm opened for one run: every paper
// table and figure rendered through an orchestrator of procs workers.
type paperInst struct {
	e    *env
	warm bool
	// cache is the populated cache paper-warm reads; coldDigest is the
	// digest of the pass that populated it.
	cache      *runner.Cache
	coldDigest string
	passes     int
}

func openPaper(e *env, warm bool) (instance, error) {
	return &paperInst{e: e, warm: warm}, nil
}

func (in *paperInst) close() error { return nil }

// scale is the sweep size: the paper's own, or a tiny one for the tier-1
// test.
func (in *paperInst) scale() experiments.Scale {
	sc := experiments.FullScale()
	if in.e.smoke {
		sc = experiments.Scale{Quota: 30, Rates: []float64{0.1, 1.0}, MaxN: 4, TraceBenchmarks: 1}
	}
	sc.Seed = in.e.seed
	return sc
}

// setup warms the process with one reduced sweep and no cache (paper-cold),
// or populates the cache paper-warm re-renders from.
func (in *paperInst) setup() error {
	if !in.warm {
		sc := in.scale()
		if !in.e.smoke {
			sc = experiments.QuickScale()
			sc.Seed = in.e.seed
		}
		_, err := in.render(nil, 0, sc, &runner.Orchestrator{Workers: in.e.procs})
		return err
	}
	cache, err := in.freshCache()
	if err != nil {
		return err
	}
	out, err := in.render(nil, 0, in.scale(), &runner.Orchestrator{Workers: in.e.procs, Cache: cache})
	if err != nil {
		return err
	}
	in.cache, in.coldDigest = cache, out.digest
	return nil
}

func (in *paperInst) freshCache() (*runner.Cache, error) {
	dir, err := os.MkdirTemp(in.e.tmp, "ftcache-")
	if err != nil {
		return nil, err
	}
	return runner.NewCache(dir)
}

func (in *paperInst) pass(rec *recorder) (*passOut, error) {
	cache := in.cache
	if !in.warm {
		var err error
		if cache, err = in.freshCache(); err != nil {
			return nil, err
		}
		defer os.RemoveAll(cache.Dir())
	}
	passSpan := rec.begin(0, 0, "", "pass")
	out, err := in.render(rec, passSpan, in.scale(), &runner.Orchestrator{Workers: in.e.procs, Cache: cache})
	if err != nil {
		return nil, err
	}
	rec.end(passSpan, map[string]any{"results": out.jobs})
	if in.warm {
		if n := out.layer["runner.sims_executed"]; n != 0 {
			out.fail("warm pass executed %v simulations, want 0", n)
		}
		if out.digest != in.coldDigest {
			out.fail("warm digest %s differs from the cold digest %s", out.digest, in.coldDigest)
		}
	}
	return out, nil
}

// experimentGroup files an experiment under the per-layer metric that
// accumulates its Run time.
func experimentGroup(id string) string {
	switch {
	case id == "fig11" || id == "fig12":
		return "experiments.fig11_12_s"
	case id == "fig13":
		return "experiments.fig13_s"
	case strings.HasPrefix(id, "fig15"):
		return "experiments.fig15_s"
	case id == "fig17":
		return "experiments.fig17_s"
	case id == "table1" || id == "table2" || id == "fig1" || id == "fig4" || id == "fig6" || id == "fig10":
		return "fpga.model_ms"
	}
	return "experiments.rest_s"
}

// render runs every paper experiment once through orch, in paper order, into
// a buffer. An operation is one job the orchestrator scheduled (a batch
// chunk, a bisection curve, or a trace's replays), timed by the
// orchestrator's own span log — steadier than the eighteen experiments, a
// third of which take microseconds. The digest is over the rendered text,
// which is a deterministic function of the simulated statistics.
func (in *paperInst) render(rec *recorder, parent int, sc experiments.Scale, orch *runner.Orchestrator) (*passOut, error) {
	in.passes++
	sc.Orch = orch
	orch.Spans = runner.NewSpanLog()
	var (
		buf  bytes.Buffer
		out  = &passOut{layer: map[string]float64{}}
		seen int
		reg  = beginRegion()
	)
	for _, ex := range experiments.All() {
		traceID := fmt.Sprintf("pass%d-%s", in.passes, ex.ID)
		span := rec.begin(parent, 0, traceID, ex.ID)
		t0 := time.Now()
		if err := ex.Run(&buf, sc); err != nil {
			return nil, fmt.Errorf("%s: %w", ex.ID, err)
		}
		d := time.Since(t0)
		rec.end(span, nil)
		group := experimentGroup(ex.ID)
		if strings.HasSuffix(group, "_ms") {
			out.layer[group] += float64(d.Nanoseconds()) / 1e6
		} else {
			out.layer[group] += d.Seconds()
		}
		// One operation per job the orchestrator scheduled for this
		// experiment, read from its own span log; traced, each becomes a
		// child span on the lane of the worker that ran it.
		spans := orch.Spans.Spans()
		for _, s := range spans[seen:] {
			out.opsMS = append(out.opsMS, float64(s.End.Sub(s.Start).Nanoseconds())/1e6)
			rec.add(span, 1+s.Worker, traceID, "job", s.Start, s.End.Sub(s.Start), map[string]any{
				"index": s.Index, "cache_hit": s.CacheHit, "queued_us": s.Start.Sub(s.Queued).Microseconds(),
			})
		}
		seen = len(spans)
	}
	reg.end(out)
	executed, hits := orch.Stats()
	busy, slowest, _ := orch.Timing()
	out.attempted = len(out.opsMS)
	out.jobs = int(executed + hits)
	out.digest = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
	out.layer["runner.sims_executed"] = float64(executed)
	out.layer["runner.cache_hits"] = float64(hits)
	out.layer["runner.worker_util"] = busy.Seconds() / (out.wall.Seconds() * float64(in.e.procs))
	out.layer["runner.slowest_job_ms"] = float64(slowest.Nanoseconds()) / 1e6
	return out, nil
}
