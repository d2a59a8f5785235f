package runner

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"reflect"
	"runtime"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/sim"
)

func testCache(t testing.TB) *Cache {
	t.Helper()
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func quickOpts() core.SyntheticOptions {
	return core.SyntheticOptions{Pattern: "RANDOM", Rate: 0.3, PacketsPerPE: 50, Seed: 5}
}

// TestCacheRoundTripBitIdentical is the golden contract: a result served
// from the cache is bit-identical (reflect.DeepEqual over every field,
// histogram and per-source accumulator included) to the freshly simulated
// one.
func TestCacheRoundTripBitIdentical(t *testing.T) {
	cfg := core.FastTrack(4, 2, 1)
	opts := quickOpts()
	fresh, err := core.RunSynthetic(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := testCache(t)
	key := SyntheticKey(cfg, opts)
	if err := c.Put(key, fresh); err != nil {
		t.Fatal(err)
	}
	var cached sim.Result
	if !c.Get(key, &cached) {
		t.Fatal("entry vanished")
	}
	if !reflect.DeepEqual(fresh, cached) {
		t.Fatalf("cached result is not bit-identical to the fresh run:\nfresh:  %+v\ncached: %+v", fresh, cached)
	}
	// And the simulation itself is deterministic, so the cache never masks
	// a rerun.
	again, err := core.RunSynthetic(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, again) {
		t.Fatal("simulation is not deterministic; caching contract broken")
	}
}

// TestCacheMissAndInvalidation: unknown keys miss, and any config or
// workload change re-keys the entry.
func TestCacheMissAndInvalidation(t *testing.T) {
	c := testCache(t)
	cfg := core.Hoplite(4)
	opts := quickOpts()
	var out sim.Result
	if c.Get(SyntheticKey(cfg, opts), &out) {
		t.Fatal("empty cache must miss")
	}
	if err := c.Put(SyntheticKey(cfg, opts), sim.Result{Cycles: 42}); err != nil {
		t.Fatal(err)
	}
	if !c.Get(SyntheticKey(cfg, opts), &out) || out.Cycles != 42 {
		t.Fatal("stored entry must hit")
	}
	for _, k := range []string{
		SyntheticKey(core.Hoplite(8), opts),         // different network
		SyntheticKey(core.FastTrack(4, 2, 1), opts), // different family
		SyntheticKey(cfg, withRate(opts, 0.31)),     // different rate
		SyntheticKey(cfg, withSeed(opts, 6)),        // different seed
	} {
		if c.Get(k, &out) {
			t.Fatalf("key %q must not alias the stored entry", k)
		}
	}
}

func withRate(o core.SyntheticOptions, r float64) core.SyntheticOptions {
	o.Rate = r
	return o
}

func withSeed(o core.SyntheticOptions, s uint64) core.SyntheticOptions {
	o.Seed = s
	return o
}

// TestCacheCorruptFileTolerance: truncated or garbage entries behave as
// misses, heal (the file is removed), and the slot is rewritable.
func TestCacheCorruptFileTolerance(t *testing.T) {
	c := testCache(t)
	const key = "corruption-probe"
	if err := c.Put(key, sim.Result{Cycles: 7}); err != nil {
		t.Fatal(err)
	}
	for _, garbage := range [][]byte{{}, []byte("not gob"), {0x0e, 0xff, 0x81}} {
		if err := os.WriteFile(c.Path(key), garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		var out sim.Result
		if c.Get(key, &out) {
			t.Fatal("corrupt entry must read as a miss")
		}
		if _, err := os.Stat(c.Path(key)); !os.IsNotExist(err) {
			t.Fatal("corrupt entry should be removed")
		}
		if err := c.Put(key, sim.Result{Cycles: 9}); err != nil {
			t.Fatal(err)
		}
		var back sim.Result
		if !c.Get(key, &back) || back.Cycles != 9 {
			t.Fatal("cache did not heal after corruption")
		}
	}
}

// TestDoCountsHitsAndExecutions: Do computes once, then serves the cache.
func TestDoCountsHitsAndExecutions(t *testing.T) {
	o := &Orchestrator{Cache: testCache(t)}
	runs := 0
	run := func() (sim.Result, error) {
		runs++
		return sim.Result{Cycles: 11}, nil
	}
	for i := 0; i < 3; i++ {
		res, err := Do(context.Background(), o, "the-key", run)
		if err != nil || res.Cycles != 11 {
			t.Fatalf("iteration %d: %v %+v", i, err, res)
		}
	}
	if runs != 1 {
		t.Fatalf("want 1 execution, got %d", runs)
	}
	executed, hits := o.Stats()
	if executed != 1 || hits != 2 {
		t.Fatalf("want stats 1/2, got %d/%d", executed, hits)
	}
}

// TestDoWithoutCache: a cacheless orchestrator recomputes every time but
// still counts executions.
func TestDoWithoutCache(t *testing.T) {
	o := &Orchestrator{}
	runs := 0
	for i := 0; i < 2; i++ {
		if _, err := Do(context.Background(), o, "k", func() (int, error) { runs++; return runs, nil }); err != nil {
			t.Fatal(err)
		}
	}
	executed, hits := o.Stats()
	if runs != 2 || executed != 2 || hits != 0 {
		t.Fatalf("want 2 executions, got runs=%d stats=%d/%d", runs, executed, hits)
	}
}

// TestCachedSweepThroughForEach: the full orchestration path — parallel
// ForEach jobs each funneled through Do — produces identical results on a
// cold and a warm pass, with the warm pass executing nothing.
func TestCachedSweepThroughForEach(t *testing.T) {
	cache := testCache(t)
	cfgs := []core.Config{core.Hoplite(4), core.FastTrack(4, 2, 1), core.FastTrack(4, 2, 2)}
	sweep := func() ([]sim.Result, *Orchestrator, error) {
		o := &Orchestrator{Cache: cache, Workers: 4}
		out := make([]sim.Result, len(cfgs))
		err := o.ForEach(context.Background(), len(cfgs), func(ctx context.Context, i int) error {
			opts := quickOpts()
			res, err := Do(ctx, o, SyntheticKey(cfgs[i], opts), func() (sim.Result, error) {
				return core.RunSynthetic(ctx, cfgs[i], opts)
			})
			out[i] = res
			return err
		})
		return out, o, err
	}
	cold, co, err := sweep()
	if err != nil {
		t.Fatal(err)
	}
	if ex, _ := co.Stats(); ex != int64(len(cfgs)) {
		t.Fatalf("cold pass should execute all %d jobs, did %d", len(cfgs), ex)
	}
	warm, wo, err := sweep()
	if err != nil {
		t.Fatal(err)
	}
	if ex, hits := wo.Stats(); ex != 0 || hits != int64(len(cfgs)) {
		t.Fatalf("warm pass must be all hits: executed=%d hits=%d", ex, hits)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm results diverge from cold results")
	}
}

// The entry format before the Format tag, kept here only to write stale
// entries: a header with just the key, and stats values that each nest a
// whole gob stream (one compiled decoder per PE — the cost the flat blobs in
// internal/stats/gob.go removed). The mirror structs carry sim.Result's
// field names, which is all gob matches on.
type (
	oldEntryHeader struct{ Key string }
	oldAccumulator struct {
		N              int64
		Mean, M2       float64
		MinVal, MaxVal float64
	}
	oldHistogram struct {
		Bounds, Counts       []int64
		Over, N, Sum, MaxVal int64
	}
	oldResult struct {
		Cycles    int64
		Latency   *oldHistogram
		PerSource []oldAccumulator
	}
)

func nestedGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func (a oldAccumulator) GobEncode() ([]byte, error) {
	type wire oldAccumulator // drops the method, so this does not recurse
	return nestedGob(wire(a))
}

func (h *oldHistogram) GobEncode() ([]byte, error) {
	type wire oldHistogram
	return nestedGob(wire(*h))
}

func writeOldEntry(t testing.TB, c *Cache, key string, v any) {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(oldEntryHeader{Key: key}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.Path(key), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheOldFormatEntryHeals: an entry written by a binary from before the
// Format tag is a deterministic miss — also when its value holds no stats
// blob and would decode cleanly — that is removed, re-simulated once and
// rewritten in the current format.
func TestCacheOldFormatEntryHeals(t *testing.T) {
	cfg, opts := core.FastTrack(4, 2, 1), quickOpts()
	fresh, err := core.RunSynthetic(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, old := range map[string]any{
		"nested stats blobs": oldResult{
			Cycles:    fresh.Cycles,
			Latency:   &oldHistogram{Bounds: []int64{1, 2}, Counts: []int64{3, 0}, N: 3, Sum: 3, MaxVal: 1},
			PerSource: []oldAccumulator{{N: 2, Mean: 4, M2: 2, MinVal: 3, MaxVal: 5}, {}},
		},
		"no stats blobs": oldResult{Cycles: fresh.Cycles},
	} {
		t.Run(name, func(t *testing.T) {
			o := &Orchestrator{Cache: testCache(t)}
			key := SyntheticKey(cfg, opts)
			writeOldEntry(t, o.Cache, key, old)
			var got sim.Result
			if o.Cache.Get(key, &got) {
				t.Fatal("old-format entry must read as a miss")
			}
			if _, err := os.Stat(o.Cache.Path(key)); !os.IsNotExist(err) {
				t.Fatal("old-format entry should be removed")
			}
			writeOldEntry(t, o.Cache, key, old)
			runs := 0
			res, err := Do(context.Background(), o, key, func() (sim.Result, error) {
				runs++
				return core.RunSynthetic(context.Background(), cfg, opts)
			})
			if err != nil || runs != 1 || !reflect.DeepEqual(res, fresh) {
				t.Fatalf("Do over an old-format entry: runs=%d err=%v", runs, err)
			}
			got = sim.Result{}
			if !o.Cache.Get(key, &got) || !reflect.DeepEqual(got, fresh) {
				t.Fatal("healed entry must hit with the re-simulated result")
			}
		})
	}
}

// TestCacheGetAllocs gates the decode cost of a hit, in the style of
// sim's TestDeliveryDoesNotAllocate: a 16x16 FastTrack Result holds 256
// per-PE accumulators, and a decoder that opens a gob stream per value
// (the pre-Format-tag codec: several thousand allocations here) cannot come
// back under this bound. What remains is gob compiling one engine for
// sim.Result per Decoder, which does not grow with the PE count.
func TestCacheGetAllocs(t *testing.T) {
	cfg := core.FastTrack(16, 2, 1)
	opts := core.SyntheticOptions{Pattern: "RANDOM", Rate: 0.2, PacketsPerPE: 5, Seed: 3}
	res, err := core.RunSynthetic(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerSource) != 256 {
		t.Fatalf("want 256 per-PE accumulators, got %d", len(res.PerSource))
	}
	c := testCache(t)
	key := SyntheticKey(cfg, opts)
	if err := c.Put(key, res); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		var got sim.Result
		if !c.Get(key, &got) {
			t.Fatal("entry vanished")
		}
	})
	const bound = 600
	if allocs > bound {
		t.Fatalf("Cache.Get of a 256-PE result: %.0f allocations, want <= %d", allocs, bound)
	}
	t.Logf("%.0f allocations per hit", allocs)
}

// FuzzCacheGet: whatever bytes sit where an entry should be, Get neither
// panics nor reports a hit nor allocates beyond a small multiple of the file
// (plus gob's fixed message chunk), and the file is gone afterwards. The seeds are real entries (current and
// old format) written under another key, so no mutation of them is a
// legitimate hit.
func FuzzCacheGet(f *testing.F) {
	cfg, opts := core.Hoplite(2), core.SyntheticOptions{Pattern: "RANDOM", Rate: 0.5, PacketsPerPE: 4, Seed: 1}
	res, err := core.RunSynthetic(context.Background(), cfg, opts)
	if err != nil {
		f.Fatal(err)
	}
	c := testCache(f)
	const seedKey, key = "seed entries live under this key", "FuzzCacheGet asks for a different, longer key"
	if err := c.Put(seedKey, res); err != nil {
		f.Fatal(err)
	}
	entry, err := os.ReadFile(c.Path(seedKey))
	if err != nil {
		f.Fatal(err)
	}
	writeOldEntry(f, c, seedKey, oldResult{Cycles: 9, PerSource: []oldAccumulator{{N: 1}}})
	oldEntry, err := os.ReadFile(c.Path(seedKey))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(entry)
	f.Add(entry[:len(entry)/2])
	f.Add(oldEntry)
	f.Add([]byte{})
	f.Add([]byte("not gob"))
	f.Add([]byte{0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // a message claiming 2^63 bytes
	f.Add([]byte{0xfd, 0x98, 0x96, 0x7f, 0x00})                         // ... and one claiming 10 MB
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.Path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var got sim.Result
		hit := c.Get(key, &got)
		runtime.ReadMemStats(&after)
		if hit {
			t.Fatal("arbitrary bytes read as a hit")
		}
		if _, err := os.Stat(c.Path(key)); !os.IsNotExist(err) {
			t.Fatal("bad entry was not removed")
		}
		// 64 covers the widest element a claimed slice length can buy
		// (40-byte accumulators, one input byte each). The constant is
		// encoding/gob's, not ours: it allocates a message's claimed
		// length before reading it, capped at one 10 MB chunk whatever the
		// claim, and compiles an engine for sim.Result per Decoder.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+11<<20); grew > limit {
			t.Fatalf("Get of a %d-byte file allocated %d bytes, limit %d", len(data), grew, limit)
		}
	})
}
