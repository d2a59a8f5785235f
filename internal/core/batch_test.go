package core_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/telemetry"
)

// TestBatchGoldenMatrix is the SyntheticBatch contract the benchmark probes
// rely on: for a matrix of network families × patterns × rates (below and at
// saturation) × harness sizes, every result Run returns must DeepEqual the
// RunSynthetic result of the job in its slot — all Result fields, counters,
// and float accumulation order included. Seeds differ per slot, so a result
// returned in the wrong slot cannot pass.
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
								t.Fatalf("job %d diverges from per-job run\nbatched: %+v\nper-job: %+v",
									i, got[i], want)
							}
						}
					})
				}
			}
		}
	}
}

// TestBatchMixedSpecs runs one SyntheticBatch call whose jobs differ in
// pattern, rate, seed and cycle budget: each option must reach its own job.
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
			t.Fatalf("job %d diverges\nbatched: %+v\nper-job: %+v", i, got[i], want)
		}
	}
}

// TestBatchReuseGolden reruns one SyntheticBatch three times on the same
// jobs, with different jobs in between: nothing a run leaves behind —
// including the rule table every FastTrack network shares — may change a
// later result.
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

// TestBatchChunksOverCapacity runs more jobs than the harness size; Run
// must still return every job's per-job result, in order.
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

// TestBatchObserverGolden: each job's Observer must reach its own run, so
// Results are bit-identical to RunSynthetic with the same observer
// arrangement and each job's link-stats observer writes identical bytes.
func TestBatchObserverGolden(t *testing.T) {
	cfg := core.Hoplite(8)
	const width = 4
	optsList := make([]core.SyntheticOptions, width)
	links := make([]*telemetry.LinkStats, width)
	for i := range optsList {
		links[i] = telemetry.NewLinkStats(8, 8)
		optsList[i] = core.SyntheticOptions{
			Pattern: "RANDOM", Rate: 0.4, PacketsPerPE: 30,
			Seed: 11 + uint64(i), Observer: links[i],
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

	csv := func(l *telemetry.LinkStats) string {
		var b strings.Builder
		if err := l.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for i := range optsList {
		ref := telemetry.NewLinkStats(8, 8)
		refOpts := optsList[i]
		refOpts.Observer = ref
		want, err := core.RunSynthetic(context.Background(), cfg, refOpts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("job %d result diverges with observers attached", i)
		}
		if bs, rs := csv(links[i]), csv(ref); bs != rs {
			t.Fatalf("job %d observer totals diverge:\nbatch: %s\nref:   %s", i, bs, rs)
		}
	}
}
