package experiments

import (
	"context"

	"fasttrack/internal/core"
	"fasttrack/internal/runner"
	"fasttrack/internal/sim"
)

// defaultOrch schedules simulations for Scales that carry no orchestrator:
// parallel across CPUs, uncached — the behaviour of the historical
// forEachParallel helper this file used to implement directly.
var defaultOrch = &runner.Orchestrator{}

// orch returns the sweep orchestrator in effect for this scale.
func (s Scale) orch() *runner.Orchestrator {
	if s.Orch != nil {
		return s.Orch
	}
	return defaultOrch
}

// forEachParallel fans f(ctx, 0..n-1) across the orchestrator's worker pool
// and returns the first error, wrapped in *runner.JobError so the failing
// job index survives. When a job fails, the context handed to in-flight
// siblings is cancelled (sim.Run polls it) and queued jobs never start.
// Every simulation owns its network and PRNG streams, so results are
// bit-identical to the serial loop; only wall-clock changes.
func (s Scale) forEachParallel(n int, f func(ctx context.Context, i int) error) error {
	return s.orch().ForEach(context.Background(), n, f)
}

// runSynthetic funnels one synthetic-workload simulation through the
// orchestrator: content-addressed cache lookup first, fresh (cancellable)
// run on a miss.
func (s Scale) runSynthetic(ctx context.Context, cfg core.Config, o core.SyntheticOptions) (sim.Result, error) {
	return runner.Do(ctx, s.orch(), runner.SyntheticKey(cfg, o), func() (sim.Result, error) {
		return core.RunSynthetic(ctx, cfg, o)
	})
}

// sweepPool recycles slab-backed batched networks across this package's
// dense sweeps: the figures revisit the same few configurations at many
// rates, so successive chunks reuse the same harness.
var sweepPool runner.NetPool

// runSyntheticBatch answers many synthetic jobs at once on the lockstep
// batched path (runner.DoSyntheticBatch): per job it is bit-identical to
// runSynthetic — same cache keys, same Result — but cold jobs sharing a
// configuration run batched over one topology instead of one network each.
func (s Scale) runSyntheticBatch(ctx context.Context, jobs []runner.SyntheticJob) ([]sim.Result, error) {
	return runner.DoSyntheticBatch(ctx, s.orch(), &sweepPool, jobs)
}
