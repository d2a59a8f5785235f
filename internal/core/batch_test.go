package core_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/monitor"
	"fasttrack/internal/sim"
	"fasttrack/internal/traffic"
)

// TestBatchGoldenMatrix is the batched path's bit-exactness contract: for a
// matrix of network families × patterns × rates (below and at saturation) ×
// batch widths, every lockstep result must DeepEqual the per-job
// RunSynthetic result — all Result fields, counters, and float accumulation
// order included. Per-instance seeds differ so lockstep neighbours never
// shadow each other.
func TestBatchGoldenMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix is slow")
	}
	configs := []core.Config{
		core.Hoplite(8),
		core.FastTrack(8, 2, 2),
		core.FastTrack(8, 2, 1).WithVariant(core.VariantInject),
	}
	for _, cfg := range configs {
		for _, pattern := range []string{"RANDOM", "TRANSPOSE"} {
			for _, rate := range []float64{0.05, 1.0} {
				for _, width := range []int{1, 4, 16} {
					cfg, pattern, rate, width := cfg, pattern, rate, width
					t.Run(fmt.Sprintf("%s/%s/r%v/b%d", cfg, pattern, rate, width), func(t *testing.T) {
						t.Parallel()
						optsList := make([]core.SyntheticOptions, width)
						for i := range optsList {
							optsList[i] = core.SyntheticOptions{
								Pattern: pattern, Rate: rate, PacketsPerPE: 40,
								Seed: 7 + uint64(i),
							}
						}
						sb, err := core.NewSyntheticBatch(cfg, width)
						if err != nil {
							t.Fatal(err)
						}
						got, err := sb.Run(context.Background(), optsList)
						if err != nil {
							t.Fatal(err)
						}
						for i, o := range optsList {
							want, err := core.RunSynthetic(context.Background(), cfg, o)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got[i], want) {
								t.Fatalf("instance %d diverges from per-job run\nbatched: %+v\nper-job: %+v",
									i, got[i], want)
							}
						}
					})
				}
			}
		}
	}
}

// TestBatchMixedSpecs runs one lockstep batch whose instances differ in
// pattern, rate, and seed — instances drain at very different cycles, so
// this exercises retirement and compaction of the live set.
func TestBatchMixedSpecs(t *testing.T) {
	cfg := core.FastTrack(8, 2, 1)
	optsList := []core.SyntheticOptions{
		{Pattern: "RANDOM", Rate: 0.02, PacketsPerPE: 30, Seed: 1},
		{Pattern: "TRANSPOSE", Rate: 1.0, PacketsPerPE: 60, Seed: 2},
		{Pattern: "RANDOM", Rate: 0.5, PacketsPerPE: 10, Seed: 3},
		{Pattern: "BITCOMPL", Rate: 0.1, PacketsPerPE: 45, Seed: 4},
		{Pattern: "RANDOM", Rate: 1.0, PacketsPerPE: 25, Seed: 5, MaxCycles: 200},
	}
	sb, err := core.NewSyntheticBatch(cfg, len(optsList))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sb.Run(context.Background(), optsList)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range optsList {
		want, err := core.RunSynthetic(context.Background(), cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("instance %d diverges\nbatched: %+v\nper-job: %+v", i, got[i], want)
		}
	}
}

// TestBatchReuseGolden reruns a harness three times on the same jobs: Reset
// must restore the exact post-construction state, so every rerun is
// bit-identical to the first (and to the per-job path, covered above). A
// second pass with different jobs in between guards against state leaking
// through the slabs.
func TestBatchReuseGolden(t *testing.T) {
	for _, cfg := range []core.Config{core.Hoplite(8), core.FastTrack(8, 2, 2)} {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			jobs := []core.SyntheticOptions{
				{Pattern: "RANDOM", Rate: 1.0, PacketsPerPE: 30, Seed: 11},
				{Pattern: "TRANSPOSE", Rate: 0.05, PacketsPerPE: 30, Seed: 12},
			}
			other := []core.SyntheticOptions{
				{Pattern: "BITCOMPL", Rate: 0.3, PacketsPerPE: 50, Seed: 99},
				{Pattern: "RANDOM", Rate: 0.7, PacketsPerPE: 20, Seed: 98},
			}
			sb, err := core.NewSyntheticBatch(cfg, len(jobs))
			if err != nil {
				t.Fatal(err)
			}
			first, err := sb.Run(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sb.Run(context.Background(), other); err != nil {
				t.Fatal(err)
			}
			again, err := sb.Run(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("reused harness diverges\nfirst: %+v\nagain: %+v", first, again)
			}
		})
	}
}

// TestBatchChunksOverCapacity runs more jobs than the harness width; Run
// must chunk and still match the per-job path job for job.
func TestBatchChunksOverCapacity(t *testing.T) {
	cfg := core.Hoplite(8)
	var jobs []core.SyntheticOptions
	for i := 0; i < 7; i++ {
		jobs = append(jobs, core.SyntheticOptions{
			Pattern: "RANDOM", Rate: 0.4, PacketsPerPE: 20, Seed: uint64(i + 1),
		})
	}
	sb, err := core.NewSyntheticBatch(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sb.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range jobs {
		want, err := core.RunSynthetic(context.Background(), cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("job %d diverges", i)
		}
	}
}

// TestBatchableRejections documents the capability boundary.
func TestBatchableRejections(t *testing.T) {
	base := core.SyntheticOptions{Pattern: "RANDOM", Rate: 0.5, PacketsPerPE: 10, Seed: 1}
	if !core.Batchable(core.Hoplite(8), base) {
		t.Fatal("plain hoplite job should be batchable")
	}
	if core.Batchable(core.MultiChannel(8, 2), base) {
		t.Fatal("multi-channel has no batch constructor")
	}
	// The dense reference is not a core option; the lockstep driver itself
	// refuses it, in the job's own slot.
	net, err := core.Hoplite(8).Build()
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(8, 8, traffic.Random{}, base.Rate, base.PacketsPerPE, base.Seed)
	dense := sim.RunBatch([]sim.BatchJob{{Net: net, WL: wl, Opts: sim.Options{Engine: sim.EngineDense}}})
	if dense[0].Err == nil {
		t.Fatal("dense engine is the reference, not batchable")
	}
	sharded := base
	sharded.Shards = 2
	if core.Batchable(core.Hoplite(8), sharded) {
		t.Fatal("sharded jobs compose with batching at the job level")
	}
	reg := base
	reg.RegulateRate = 0.1
	if core.Batchable(core.Hoplite(8), reg) {
		t.Fatal("regulated workloads need the per-job plumbing")
	}
	observed := base
	observed.Observer = monitor.NewCollector(8, 8)
	if !core.Batchable(core.Hoplite(8), observed) {
		t.Fatal("observed jobs batch (lockstep steps instances in deterministic order)")
	}

	sb, err := core.NewSyntheticBatch(core.Hoplite(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Run(context.Background(), []core.SyntheticOptions{sharded}); err == nil {
		t.Fatal("Run accepted an un-batchable job")
	}
	if _, err := core.NewSyntheticBatch(core.MultiChannel(8, 2), 2); err == nil {
		t.Fatal("NewSyntheticBatch accepted multi-channel")
	}
}

// TestBatchObserverGolden is the batch observer contract: running observed
// jobs through the lockstep path must leave Results bit-identical to
// RunSynthetic with the same observer arrangement, and each job's monitor
// Collector must accumulate identical deterministic totals — batched sweeps
// feed live telemetry instead of silently dropping it.
func TestBatchObserverGolden(t *testing.T) {
	cfg := core.Hoplite(8)
	const width = 4
	optsList := make([]core.SyntheticOptions, width)
	cols := make([]*monitor.Collector, width)
	for i := range optsList {
		cols[i] = monitor.NewCollector(8, 8)
		optsList[i] = core.SyntheticOptions{
			Pattern: "RANDOM", Rate: 0.4, PacketsPerPE: 30,
			Seed: 11 + uint64(i), Observer: cols[i],
		}
	}
	sb, err := core.NewSyntheticBatch(cfg, width)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sb.Run(context.Background(), optsList)
	if err != nil {
		t.Fatal(err)
	}

	// deterministic strips wall-clock fields; everything left must match the
	// per-job run bit for bit.
	deterministic := func(s monitor.Snapshot) monitor.Snapshot {
		s.WallMS = 0
		return s
	}
	for i := range optsList {
		ref := monitor.NewCollector(8, 8)
		refOpts := optsList[i]
		refOpts.Observer = ref
		want, err := core.RunSynthetic(context.Background(), cfg, refOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("job %d result diverges with observers attached", i)
		}
		bs, rs := deterministic(cols[i].Snapshot()), deterministic(ref.Snapshot())
		if !reflect.DeepEqual(bs, rs) {
			t.Fatalf("job %d observer totals diverge:\nbatch: %+v\nref:   %+v", i, bs, rs)
		}
	}
}
