package runner

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"

	"fasttrack/internal/core"
)

// TestBatchCacheKeyNeutral is the key-neutrality contract for a sweep's batch
// of jobs: DoSynthetic and a per-job run share one key per job, the entry
// DoSynthetic writes is byte-identical to the one a per-job Put writes (same
// Result values, same encoding), and either can answer the other's lookups.
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

	// Sweep entry, written by DoSynthetic on a cold cache.
	swept := testCache(t)
	o := &Orchestrator{Cache: swept, Workers: 2}
	jobs := []SyntheticJob{{Cfg: cfg, Opts: opts}}
	out, err := DoSynthetic(context.Background(), o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out[0], res) {
		t.Fatalf("swept result diverges from per-job:\nswept:   %+v\nper-job: %+v", out[0], res)
	}

	a, err := os.ReadFile(perJob.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(swept.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("cache entries differ byte-for-byte (%d vs %d bytes)", len(a), len(b))
	}

	// And the per-job entry answers the sweep: a warm DoSynthetic over the
	// per-job cache executes nothing.
	o2 := &Orchestrator{Cache: perJob}
	warm, err := DoSynthetic(context.Background(), o2, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if ex, hits := o2.Stats(); ex != 0 || hits != 1 {
		t.Fatalf("warm sweep over per-job cache: executed=%d hits=%d", ex, hits)
	}
	if !reflect.DeepEqual(warm[0], res) {
		t.Fatal("cached answer diverges")
	}
}

// TestDoSyntheticHitsAndMisses drives one call mixing a cache hit with
// misses on two network families. Hits come back inline
// with no span; each miss is one ForEach job with one span; every result
// DeepEquals core.RunSynthetic's; and the cold pass leaves a cache from which
// a warm pass executes nothing.
func TestDoSyntheticHitsAndMisses(t *testing.T) {
	cache := testCache(t)
	hop, ft := core.Hoplite(4), core.FastTrack(4, 2, 1)

	jobs := []SyntheticJob{
		{Cfg: hop, Opts: quickOpts()},
		{Cfg: ft, Opts: quickOpts()},
		{Cfg: hop, Opts: withSeed(quickOpts(), 6)},
		{Cfg: hop, Opts: withSeed(quickOpts(), 77)},
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

	o := &Orchestrator{Cache: cache, Workers: 2, Spans: NewSpanLog()}
	out, err := DoSynthetic(context.Background(), o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	executed, hits := o.Stats()
	if hits != 1 || executed != int64(len(jobs)-1) {
		t.Fatalf("want 1 hit / %d executed, got %d / %d", len(jobs)-1, hits, executed)
	}
	spans := o.Spans.Spans()
	if len(spans) != len(jobs)-1 {
		t.Fatalf("%d spans for %d misses", len(spans), len(jobs)-1)
	}
	keyed := map[string]bool{}
	for _, s := range spans {
		if s.CacheHit || keyed[s.Key] {
			t.Fatalf("span %+v: a miss span must be unique and not a hit", s)
		}
		keyed[s.Key] = true
	}
	for i, j := range jobs {
		missed := i != 0 // jobs[0] was pre-warmed
		if keyed[SyntheticKey(j.Cfg, j.Opts)] != missed {
			t.Fatalf("job %d: span recorded=%v, want one exactly when the job missed", i, !missed)
		}
		want, err := core.RunSynthetic(context.Background(), j.Cfg, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out[i], want) {
			t.Fatalf("job %d diverges from per-job run", i)
		}
	}

	// Everything is now cached; a warm pass executes nothing.
	o2 := &Orchestrator{Cache: cache, Spans: NewSpanLog()}
	warm, err := DoSynthetic(context.Background(), o2, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if ex, h := o2.Stats(); ex != 0 || h != int64(len(jobs)) || len(o2.Spans.Spans()) != 0 {
		t.Fatalf("warm pass: executed=%d hits=%d spans=%d", ex, h, len(o2.Spans.Spans()))
	}
	if !reflect.DeepEqual(out, warm) {
		t.Fatal("warm results diverge")
	}
}
