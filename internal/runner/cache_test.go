package runner

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fasttrack/internal/analysis"
	"fasttrack/internal/core"
	"fasttrack/internal/sim"
	"fasttrack/internal/stats"
	"fasttrack/internal/trace"
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

// TestCacheCorruptFileTolerance: truncated, over-long, non-minimally spelled
// or garbage entries behave as misses, heal (the file is removed), and the
// slot is rewritable.
func TestCacheCorruptFileTolerance(t *testing.T) {
	c := testCache(t)
	const key = "corruption-probe"
	if err := c.Put(key, sim.Result{Cycles: 7}); err != nil {
		t.Fatal(err)
	}
	entry, err := os.ReadFile(c.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	at := 1 + len(key) // the format tag, after the key's length and bytes
	if entry[at] != entryFormat {
		t.Fatalf("format tag not at byte %d of %x", at, entry)
	}
	for _, garbage := range [][]byte{
		{}, []byte("not gob"), {0x0e, 0xff, 0x81},
		entry[:len(entry)-1],
		append(entry[:len(entry):len(entry)], 0),
		append(append(entry[:at:at], entryFormat|0x80, 0), entry[at+1:]...), // the tag in two bytes
	} {
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

// The gob entry formats, kept here only to write stale entries. Format 0 had
// a header with just the key, and stats values that each nested a whole gob
// stream (one compiled decoder per PE — the cost the flat blobs in
// internal/stats/wire.go removed). The mirror structs carry sim.Result's
// field names, which is all gob matches on. Format 2 added the Format tag to
// the header and gob-encoded sim.Result itself, its stats values as flat
// blobs.
type (
	oldEntryHeader struct{ Key string }
	gobEntryHeader struct {
		Key    string
		Format int
	}
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

// writeOldEntry writes v under key as a gob entry of the given format (0 or
// 2).
func writeOldEntry(t testing.TB, c *Cache, key string, format int, v any) {
	t.Helper()
	var hdr any = oldEntryHeader{Key: key}
	if format != 0 {
		hdr = gobEntryHeader{Key: key, Format: format}
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(hdr); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.Path(key), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCacheOldFormatEntryHeals: an entry written by an older binary — a gob
// stream from before the Format tag, also when its value holds no stats blob
// and would decode cleanly, or a format-2 gob entry — is a deterministic miss
// that is removed, re-simulated once and rewritten in the current format.
func TestCacheOldFormatEntryHeals(t *testing.T) {
	cfg, opts := core.FastTrack(4, 2, 1), quickOpts()
	fresh, err := core.RunSynthetic(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, old := range map[string]struct {
		format int
		value  any
	}{
		"nested stats blobs": {0, oldResult{
			Cycles:    fresh.Cycles,
			Latency:   &oldHistogram{Bounds: []int64{1, 2}, Counts: []int64{3, 0}, N: 3, Sum: 3, MaxVal: 1},
			PerSource: []oldAccumulator{{N: 2, Mean: 4, M2: 2, MinVal: 3, MaxVal: 5}, {}},
		}},
		"no stats blobs": {0, oldResult{Cycles: fresh.Cycles}},
		"format 2 gob":   {2, fresh},
	} {
		t.Run(name, func(t *testing.T) {
			o := &Orchestrator{Cache: testCache(t)}
			key := SyntheticKey(cfg, opts)
			writeOldEntry(t, o.Cache, key, old.format, old.value)
			var got sim.Result
			if o.Cache.Get(key, &got) {
				t.Fatal("old-format entry must read as a miss")
			}
			if _, err := os.Stat(o.Cache.Path(key)); !os.IsNotExist(err) {
				t.Fatal("old-format entry should be removed")
			}
			writeOldEntry(t, o.Cache, key, old.format, old.value)
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

// fill sets everything reachable from v through exported fields to distinct
// non-zero values; the self-coded stats types get real samples through their
// own API.
func fill(v reflect.Value, next *int64) {
	*next++
	x := *next
	switch v.Interface().(type) {
	case stats.Accumulator:
		var a stats.Accumulator
		a.Add(float64(x))
		a.Add(float64(x) + 0.25)
		v.Set(reflect.ValueOf(a))
		return
	case stats.Histogram:
		h := stats.NewLatencyHistogram(1 << 10)
		h.Add(x)
		h.Add(x + 5000) // past the last bound
		v.Set(reflect.ValueOf(h).Elem())
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(x))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(x) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprint("s", x))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), next)
		}
	}
}

// TestCacheRoundTripEveryField: every type the repo caches, with every
// exported field set, comes back DeepEqual — Faults, Recovery, TimedOut and
// Converged included, and nil and empty PerSource and a nil Latency kept
// apart.
func TestCacheRoundTripEveryField(t *testing.T) {
	type cachelineRun struct { // the shape of experiments.cachelineRun
		Res     sim.Result
		Lines   int64
		LatMean float64
	}
	filled := func(zero any) any {
		v := reflect.New(reflect.TypeOf(zero)).Elem()
		var next int64
		fill(v, &next)
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				t.Fatalf("fill left %T.%s zero", zero, v.Type().Field(i).Name)
			}
		}
		return v.Interface()
	}
	full := filled(sim.Result{}).(sim.Result)
	emptyNil, nilSrc := full, full
	emptyNil.PerSource, emptyNil.Latency = []stats.Accumulator{}, nil
	nilSrc.PerSource = nil
	c := testCache(t)
	for name, v := range map[string]any{
		"sim.Result": full,
		"sim.Result, empty PerSource, nil Latency": emptyNil,
		"sim.Result, nil PerSource":                nilSrc,
		"trace.Header":                             filled(trace.Header{}),
		"analysis.ZeroLoad":                        filled(analysis.ZeroLoad{}),
		"cachelineRun":                             filled(cachelineRun{}),
	} {
		t.Run(name, func(t *testing.T) {
			if err := c.Put(name, v); err != nil {
				t.Fatal(err)
			}
			got := reflect.New(reflect.TypeOf(v))
			if !c.Get(name, got.Interface()) {
				t.Fatal("entry vanished")
			}
			if !reflect.DeepEqual(got.Elem().Interface(), v) {
				t.Fatalf("round trip changed the value:\nput: %+v\ngot: %+v", v, got.Elem().Interface())
			}
		})
	}
}

// TestCacheShapeChangeHeals: an entry read into a type that has since gained,
// lost, renamed or retyped a field is a miss, and its file is removed; the
// fingerprint is of the shape, so a same-shaped twin type still hits.
func TestCacheShapeChangeHeals(t *testing.T) {
	type written struct{ A int64 }
	c := testCache(t)
	for name, out := range map[string]any{
		"gained a field":  &struct{ A, B int64 }{},
		"lost a field":    &struct{}{},
		"renamed a field": &struct{ Z int64 }{},
		"retyped a field": &struct{ A int32 }{},
	} {
		t.Run(name, func(t *testing.T) {
			if err := c.Put(name, written{A: 7}); err != nil {
				t.Fatal(err)
			}
			if c.Get(name, out) {
				t.Fatalf("entry of %T read into %T", written{}, out)
			}
			if _, err := os.Stat(c.Path(name)); !os.IsNotExist(err) {
				t.Fatal("reshaped entry should be removed")
			}
		})
	}
	if err := c.Put("twin", written{A: 7}); err != nil {
		t.Fatal(err)
	}
	var twin struct{ A int64 }
	if !c.Get("twin", &twin) || twin.A != 7 {
		t.Fatal("a same-shaped type must hit")
	}
}

// TestCacheConcurrentFirstUse: goroutines that build one type's codec at
// once, then Put and Get values of it, each read back what they wrote.
func TestCacheConcurrentFirstUse(t *testing.T) {
	type fresh struct {
		A   int64
		Acc []stats.Accumulator
	}
	c := testCache(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprint("concurrent-", g)
			want := fresh{A: int64(g), Acc: make([]stats.Accumulator, g)}
			if err := c.Put(key, want); err != nil {
				t.Error(err)
				return
			}
			var got fresh
			if !c.Get(key, &got) || !reflect.DeepEqual(got, want) {
				t.Errorf("goroutine %d read back %+v", g, got)
			}
		}(g)
	}
	wg.Wait()
}

// TestCachePutUnsupported: a value the codec cannot write whole is an error
// from Put, and nothing — no entry, no temp file — is left in the cache dir.
func TestCachePutUnsupported(t *testing.T) {
	type unexported struct{ A, b int64 }
	c := testCache(t)
	for name, v := range map[string]any{
		"map":              struct{ M map[string]int }{M: map[string]int{"a": 1}},
		"map in a slice":   struct{ S []map[int]int }{},
		"unexported field": unexported{A: 1, b: 2},
		"interface":        struct{ V any }{V: 1},
		"func":             struct{ F func() }{},
		"chan":             struct{ C chan int }{},
		"nil":              nil,
	} {
		t.Run(name, func(t *testing.T) {
			if err := c.Put(name, v); err == nil {
				t.Fatalf("Put accepted a %T", v)
			}
		})
	}
	left, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("refused Put left %s behind", e.Name())
	}
}

// TestCacheGetAllocs gates the decode cost of a hit, in the style of
// sim's TestDeliveryDoesNotAllocate: a 16x16 FastTrack Result holds 256
// per-PE accumulators, which the flat record decodes in place. What a hit
// allocates is the file read, its path, the histogram and the PerSource
// slice, none of it per PE. Gob took 388 here, rebuilding its decoder from
// the type descriptors every entry repeated; the nested gob stream per
// value before that, several thousand.
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
	const bound = 64
	if allocs > bound {
		t.Fatalf("Cache.Get of a 256-PE result: %.0f allocations, want <= %d", allocs, bound)
	}
	t.Logf("%.0f allocations per hit", allocs)
}

// FuzzCacheGet: whatever bytes sit where an entry should be, Get neither
// panics nor allocates beyond a small multiple of the file. A miss removes
// the file and leaves the output zero; a hit must be a record the codec
// itself writes, so encoding the decoded value gives back the input byte for
// byte. The seeds are entries under the fuzzed key — current (#0, #7), stale
// gob (#2, #8) and one whose PerSource count claims 2^62 (#9) — and garbage.
func FuzzCacheGet(f *testing.F) {
	cfg, opts := core.Hoplite(2), core.SyntheticOptions{Pattern: "RANDOM", Rate: 0.5, PacketsPerPE: 4, Seed: 1}
	res, err := core.RunSynthetic(context.Background(), cfg, opts)
	if err != nil {
		f.Fatal(err)
	}
	c := testCache(f)
	const key = "FuzzCacheGet reads this key"
	read := func() []byte {
		b, err := os.ReadFile(c.Path(key))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	entry := func(v sim.Result) []byte {
		if err := c.Put(key, v); err != nil {
			f.Fatal(err)
		}
		return read()
	}
	current := entry(res)
	writeOldEntry(f, c, key, 0, oldResult{Cycles: 9, PerSource: []oldAccumulator{{N: 1}}})
	f.Add(current)
	f.Add(current[:len(current)/2])
	f.Add(read())
	f.Add([]byte{})
	f.Add([]byte("not gob"))
	f.Add([]byte{0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // a gob message claiming 2^63 bytes
	f.Add([]byte{0xfd, 0x98, 0x96, 0x7f, 0x00})                         // ... and one claiming 10 MB
	f.Add(entry(sim.Result{Cycles: 3, PerSource: []stats.Accumulator{}, TimedOut: true, Faults: stats.FaultCounts{Dropped: 1}}))
	writeOldEntry(f, c, key, 2, res)
	f.Add(read())
	// Nil and empty PerSource differ only in its count byte (0 vs 1).
	nilSrc, emptySrc := entry(sim.Result{}), entry(sim.Result{PerSource: []stats.Accumulator{}})
	i := 0
	for nilSrc[i] == emptySrc[i] {
		i++
	}
	f.Add(append(binary.AppendUvarint(nilSrc[:i:i], 1<<62+1), nilSrc[i+1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.Path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var got sim.Result
		hit := c.Get(key, &got)
		runtime.ReadMemStats(&after)
		// 64 covers the widest element a claimed slice length can buy
		// (40-byte accumulators, at least 41 input bytes each); the constant
		// is one histogram's small-value table (16 KB), built the first time a
		// geometry is seen, and the file read's slack.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); grew > limit {
			t.Fatalf("Get of a %d-byte file allocated %d bytes, limit %d", len(data), grew, limit)
		}
		if !hit {
			if _, err := os.Stat(c.Path(key)); !os.IsNotExist(err) {
				t.Fatal("bad entry was not removed")
			}
			if !reflect.DeepEqual(got, sim.Result{}) {
				t.Fatalf("a miss left a partial value: %+v", got)
			}
			return
		}
		if again, err := encodeEntry(key, got); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("a hit on %x re-encodes to %x (err %v)", data, again, err)
		}
	})
}
