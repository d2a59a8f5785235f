package core

import (
	"context"
	"fmt"

	"fasttrack/internal/fabric"
	"fasttrack/internal/fasttrack"
	"fasttrack/internal/hoplite"
	"fasttrack/internal/sim"
	"fasttrack/internal/traffic"
)

// Batchable reports whether a synthetic job can run on the lockstep batched
// path. Batched runs are bit-identical to RunSynthetic, so this is purely a
// capability check, never a semantics one: multi-channel networks have no
// slab-backed batch constructor, wrapped workloads (faults, retry,
// regulation) need the per-job plumbing, and sharding composes with batching
// at the job level rather than inside one instance. Observers batch fine: the
// lockstep driver steps live instances in ascending instance order each
// round, so each job's Observer sees the same deterministic event sequence
// the per-job engine emits (it only forfeits the idle fast-forward, which
// needs every cycle observed anyway).
func Batchable(cfg Config, opts SyntheticOptions) bool {
	if cfg.Kind != KindHoplite && cfg.Kind != KindFastTrack {
		return false
	}
	return opts.Faults == nil && opts.Retry == nil && opts.RegulateRate <= 0 && opts.Shards <= 1
}

// SyntheticBatch is a reusable lockstep harness for one configuration: up to
// Size independent instances of cfg's network with their hot-path state laid
// out batch-major in shared slabs, plus the event-driven batched workload.
// Run steps every instance in lockstep — results are bit-identical to
// RunSynthetic job by job — and successive Run calls recycle the slabs, so a
// sweep pays the allocation cost once per (configuration, batch) instead of
// once per job.
type SyntheticBatch struct {
	cfg   Config
	size  int
	w, h  int
	insts *fabric.Batch
}

// NewSyntheticBatch builds a harness of size instances of cfg. Only
// KindHoplite and KindFastTrack have batch constructors (see Batchable).
func NewSyntheticBatch(cfg Config, size int) (*SyntheticBatch, error) {
	if size < 1 {
		return nil, fmt.Errorf("core: batch size %d < 1", size)
	}
	var insts *fabric.Batch
	var err error
	switch cfg.Kind {
	case KindHoplite:
		insts, err = hoplite.NewBatch(cfg.N, cfg.N, size)
	case KindFastTrack:
		fc, cerr := cfg.fastTrack()
		if cerr != nil {
			return nil, cerr
		}
		insts, err = fasttrack.NewBatch(fc, size)
	default:
		err = fmt.Errorf("core: %s has no batched constructor", cfg)
	}
	if err != nil {
		return nil, err
	}
	return &SyntheticBatch{cfg: cfg, size: size, w: cfg.N, h: cfg.N, insts: insts}, nil
}

// Config returns the configuration every instance runs.
func (sb *SyntheticBatch) Config() Config { return sb.cfg }

// Size returns the instance capacity per lockstep round.
func (sb *SyntheticBatch) Size() int { return sb.size }

// Reset idles every instance, keeping the slabs, so the harness can be
// recycled across jobs (runner.NetPool). Run resets before each chunk, so
// callers only need this when handing a used harness to other code.
func (sb *SyntheticBatch) Reset() { sb.insts.Reset() }

// Run executes one synthetic job per options entry, in lockstep chunks of at
// most Size, and returns the results in order. Every result is bit-identical
// to RunSynthetic(ctx, Config(), optsList[i]). Any job failing Batchable, an
// invalid pattern, or a per-job engine error fails the whole call (mirroring
// the sweep scheduler's one-failure-cancels-siblings semantics).
func (sb *SyntheticBatch) Run(ctx context.Context, optsList []SyntheticOptions) ([]Result, error) {
	out := make([]Result, len(optsList))
	for lo := 0; lo < len(optsList); lo += sb.size {
		hi := lo + sb.size
		if hi > len(optsList) {
			hi = len(optsList)
		}
		if err := sb.runChunk(ctx, optsList[lo:hi], out[lo:hi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (sb *SyntheticBatch) runChunk(ctx context.Context, chunk []SyntheticOptions, out []Result) error {
	specs := make([]traffic.SynthSpec, len(chunk))
	for i, o := range chunk {
		if !Batchable(sb.cfg, o) {
			return fmt.Errorf("core: job %d is not batchable on %s; use RunSynthetic", i, sb.cfg)
		}
		pat, err := traffic.ByName(o.Pattern)
		if err != nil {
			return err
		}
		if err := traffic.ValidateDims(pat, sb.w, sb.h); err != nil {
			return err
		}
		specs[i] = traffic.SynthSpec{Pattern: pat, Rate: o.Rate, Quota: o.PacketsPerPE, Seed: o.Seed}
	}
	sb.Reset()
	tb := traffic.NewSyntheticBatch(sb.w, sb.h, specs)
	jobs := make([]sim.BatchJob, len(chunk))
	for i, o := range chunk {
		jobs[i] = sim.BatchJob{
			Net: sb.insts.Instance(i),
			WL:  tb.View(i),
			Opts: sim.Options{
				MaxCycles:         o.MaxCycles,
				CheckConservation: o.CheckConservation,
				MaxPacketAge:      o.MaxPacketAge,
				Context:           ctx,
				ConvergeWindow:    o.ConvergeWindow,
				ConvergeTol:       o.ConvergeTol,
				Observer:          o.Observer,
			},
		}
	}
	for i, r := range sim.RunBatch(jobs) {
		if r.Err != nil {
			return r.Err
		}
		out[i] = r.Res
	}
	return nil
}
