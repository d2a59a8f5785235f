package runner

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"

	"fasttrack/internal/core"
)

// TestBatchCacheKeyNeutral is the key-neutrality contract: batching, like
// Options.Shards, must be invisible to the cache — the batched and per-job
// paths share one key per job, and the gob entry the batched path writes is
// byte-identical to the one the per-job path writes (same Result values,
// same encoding), so either path can answer the other's lookups.
func TestBatchCacheKeyNeutral(t *testing.T) {
	cfg := core.FastTrack(4, 2, 1)
	opts := quickOpts()
	key := SyntheticKey(cfg, opts)

	// Per-job entry.
	perJob := testCache(t)
	res, err := core.RunSynthetic(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := perJob.Put(key, res); err != nil {
		t.Fatal(err)
	}

	// Batched entry, written by DoSyntheticBatch on a cold cache.
	batched := testCache(t)
	o := &Orchestrator{Cache: batched, Workers: 2}
	jobs := []SyntheticJob{{Cfg: cfg, Opts: opts}}
	out, err := DoSyntheticBatch(context.Background(), o, &NetPool{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out[0], res) {
		t.Fatalf("batched result diverges from per-job:\nbatched: %+v\nper-job: %+v", out[0], res)
	}

	a, err := os.ReadFile(perJob.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(batched.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("cache entries differ byte-for-byte (%d vs %d bytes)", len(a), len(b))
	}

	// And the per-job path can serve the batched entry: a warm
	// DoSyntheticBatch over the per-job cache executes nothing.
	o2 := &Orchestrator{Cache: perJob}
	warm, err := DoSyntheticBatch(context.Background(), o2, &NetPool{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if ex, hits := o2.Stats(); ex != 0 || hits != 1 {
		t.Fatalf("warm batch over per-job cache: executed=%d hits=%d", ex, hits)
	}
	if !reflect.DeepEqual(warm[0], res) {
		t.Fatal("cached answer diverges")
	}
}

// TestDoSyntheticBatchMatchesPerJob is the end-to-end face of the golden
// batch matrices: two network families (FastTrack full and depopulated,
// Hoplite), both patterns, rates below, at and beyond the knee, simulated
// once through DoSyntheticBatch with no cache and once per job. Every job
// must really execute on the lockstep path (no hit, no fallback) and every
// Result must DeepEqual core.RunSynthetic's.
func TestDoSyntheticBatchMatchesPerJob(t *testing.T) {
	var jobs []SyntheticJob
	for _, pat := range []string{"RANDOM", "TRANSPOSE"} {
		for _, cfg := range []core.Config{core.FastTrack(8, 2, 1), core.FastTrack(8, 2, 2), core.Hoplite(8)} {
			for _, rate := range []float64{0.05, 0.3, 1.0} {
				jobs = append(jobs, SyntheticJob{Cfg: cfg, Opts: core.SyntheticOptions{
					Pattern: pat, Rate: rate, PacketsPerPE: 120, Seed: 17,
				}})
			}
		}
	}

	o := &Orchestrator{}
	batched, err := DoSyntheticBatch(context.Background(), o, &NetPool{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if executed, hits := o.Stats(); executed != int64(len(jobs)) || hits != 0 {
		t.Fatalf("batched pass executed %d jobs with %d hits, want %d cold executions", executed, hits, len(jobs))
	}
	for i, j := range jobs {
		want, err := core.RunSynthetic(context.Background(), j.Cfg, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched[i], want) {
			t.Errorf("%s %s rate %.2f: batched result diverges from per-job path", j.Cfg, j.Opts.Pattern, j.Opts.Rate)
		}
	}
}

// TestDoSyntheticBatchMixedHitsMissesSingles drives one call containing
// cache hits, batchable misses across two configurations, and an
// un-batchable single, and checks results and counters per class.
func TestDoSyntheticBatchMixedHitsMissesSingles(t *testing.T) {
	cache := testCache(t)
	hop, ft := core.Hoplite(4), core.FastTrack(4, 2, 1)
	single := withSeed(quickOpts(), 77)
	single.Shards = 2 // un-batchable, falls back to RunSynthetic

	jobs := []SyntheticJob{
		{Cfg: hop, Opts: quickOpts()},
		{Cfg: ft, Opts: quickOpts()},
		{Cfg: hop, Opts: withSeed(quickOpts(), 6)},
		{Cfg: hop, Opts: single},
		{Cfg: ft, Opts: withRate(quickOpts(), 0.31)},
	}

	// Pre-warm one entry so the call sees a genuine hit.
	pre, err := core.RunSynthetic(context.Background(), hop, jobs[0].Opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(SyntheticKey(hop, jobs[0].Opts), pre); err != nil {
		t.Fatal(err)
	}

	o := &Orchestrator{Cache: cache, Workers: 2}
	pool := &NetPool{}
	out, err := DoSyntheticBatch(context.Background(), o, pool, jobs)
	if err != nil {
		t.Fatal(err)
	}
	executed, hits := o.Stats()
	if hits != 1 || executed != int64(len(jobs)-1) {
		t.Fatalf("want 1 hit / %d executed, got %d / %d", len(jobs)-1, hits, executed)
	}
	for i, j := range jobs {
		want, err := core.RunSynthetic(context.Background(), j.Cfg, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out[i], want) {
			t.Fatalf("job %d diverges from per-job run", i)
		}
	}

	// Everything is now cached; a warm pass executes nothing.
	o2 := &Orchestrator{Cache: cache}
	warm, err := DoSyntheticBatch(context.Background(), o2, pool, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if ex, h := o2.Stats(); ex != 0 || h != int64(len(jobs)) {
		t.Fatalf("warm pass: executed=%d hits=%d", ex, h)
	}
	if !reflect.DeepEqual(out, warm) {
		t.Fatal("warm results diverge")
	}
}

// TestNetPoolReuseGolden is the recycler's no-reuse-artifacts contract: a
// harness that has already run a different job, been Put back, and been Got
// again produces results bit-identical to a freshly built harness.
func TestNetPoolReuseGolden(t *testing.T) {
	cfg := core.FastTrack(4, 2, 2)
	dirty := core.SyntheticOptions{Pattern: "TRANSPOSE", Rate: 1.0, PacketsPerPE: 40, Seed: 33}
	probe := []core.SyntheticOptions{
		{Pattern: "RANDOM", Rate: 0.5, PacketsPerPE: 30, Seed: 1},
		{Pattern: "RANDOM", Rate: 0.5, PacketsPerPE: 30, Seed: 2},
	}

	fresh, err := core.NewSyntheticBatch(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}

	pool := &NetPool{}
	sb, err := pool.Get(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Run(context.Background(), []core.SyntheticOptions{dirty, dirty}); err != nil {
		t.Fatal(err)
	}
	pool.Put(sb)
	reused, err := pool.Get(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reused != sb {
		t.Fatal("pool did not recycle the harness")
	}
	got, err := reused.Run(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled harness diverges from fresh:\nreused: %+v\nfresh:  %+v", got, want)
	}
	pool.Put(reused)

	// A different configuration never aliases the pooled harness.
	other, err := pool.Get(core.FastTrack(4, 2, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if other == reused {
		t.Fatal("pool returned a harness keyed to a different configuration")
	}
}
