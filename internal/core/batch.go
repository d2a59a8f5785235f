package core

import "context"

// SyntheticBatch runs a list of synthetic jobs on one configuration, job by
// job through RunSynthetic. It exists only for the benchmark probes
// (benchmark/probes.go), which time it as the "batched" side of
// sim.batch_speedup and core.batch_new_ms, and it is deleted together with
// those two probes.
type SyntheticBatch struct{ cfg Config }

// NewSyntheticBatch returns the job runner for cfg. size is ignored: every
// job runs on its own network.
func NewSyntheticBatch(cfg Config, size int) (*SyntheticBatch, error) {
	return &SyntheticBatch{cfg: cfg}, nil
}

// Run returns RunSynthetic(ctx, cfg, o) for every o in optsList, in order.
// The first error fails the call.
func (sb *SyntheticBatch) Run(ctx context.Context, optsList []SyntheticOptions) ([]Result, error) {
	out := make([]Result, len(optsList))
	for i, o := range optsList {
		res, err := RunSynthetic(ctx, sb.cfg, o)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}
