package trace_test

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/matrixgen"
	"fasttrack/internal/trace"
	"fasttrack/internal/workloads/dataflow"
)

// reuseReplay is one core.RunTrace call of the buffer-reuse tests.
type reuseReplay struct {
	name string
	cfg  core.Config
	src  trace.Source
	opts core.TraceOptions
}

// reuseReplays are the replays whose order exercises every buffer a Stream
// hands to the next one: a 16×16 LU trace in memory, the same cut short by
// MaxCycles (so per-PE queues, the live list and edges are still in use when
// it is released), and a 4×4 LU trace streamed from FTT1 through a window
// small enough to bind (fewer PEs, a shorter ring, a smaller edge pool, and
// a read buffer).
func reuseReplays(t *testing.T) (full, cut, small reuseReplay) {
	t.Helper()
	lu, err := dataflow.Trace(dataflow.Benchmarks()[0], 16, 16, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(encodedLU4(t)))
	if err != nil {
		t.Fatal(err)
	}
	full = reuseReplay{"lu16", core.FastTrack(16, 2, 1), lu, core.TraceOptions{}}
	cut = reuseReplay{"lu16-cut", full.cfg, lu, core.TraceOptions{MaxCycles: 300}}
	small = reuseReplay{"lu4-window8", core.FastTrack(4, 2, 1), rd, core.TraceOptions{StreamWindow: 8}}
	return full, cut, small
}

// lu4 is a 200-column LU trace on a 4×4 grid.
func lu4(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := dataflow.Trace(matrixgen.Circuit("golden", 200, 4, 13), 4, 4, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// encodedLU4 is lu4 as an FTT1 stream.
func encodedLU4(t *testing.T) []byte {
	t.Helper()
	var ftt bytes.Buffer
	if err := trace.EncodeBinary(&ftt, lu4(t)); err != nil {
		t.Fatal(err)
	}
	return ftt.Bytes()
}

func (r reuseReplay) run() (core.Result, error) {
	return core.RunTrace(context.Background(), r.cfg, r.src, r.opts)
}

// fresh replays r on new buffers.
func (r reuseReplay) fresh(t *testing.T) core.Result {
	t.Helper()
	trace.DrainFreeLists()
	res, err := r.run()
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	return res
}

// allocated returns the bytes one replay of r allocates.
func (r reuseReplay) allocated(t *testing.T) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := r.run(); err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReplayReuseInvisible holds replays that reuse a released Stream's
// buffers, one after another and from two goroutines at once, to the
// Result of the same replay on fresh buffers, bit for bit.
func TestReplayReuseInvisible(t *testing.T) {
	full, cut, small := reuseReplays(t)
	want := map[string]core.Result{}
	for _, r := range []reuseReplay{full, cut, small} {
		want[r.name] = r.fresh(t)
	}
	if !want[cut.name].TimedOut {
		t.Fatalf("%s drained within %d cycles; it must stop with events queued", cut.name, cut.opts.MaxCycles)
	}
	inMem, err := core.RunTrace(context.Background(), small.cfg, lu4(t), core.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(inMem, want[small.name]) {
		t.Fatalf("%s replays like the whole trace in memory; its window must bind", small.name)
	}

	check := func(r reuseReplay) error {
		got, err := r.run()
		if err == nil && !reflect.DeepEqual(got, want[r.name]) {
			t.Errorf("%s on reused buffers:\n%+v\nwant (fresh buffers)\n%+v", r.name, got, want[r.name])
		}
		return err
	}
	for _, r := range []reuseReplay{full, cut, small, full, small} {
		if err := check(r); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
	}

	var wg sync.WaitGroup
	for _, seq := range [][]reuseReplay{{cut, small, full}, {small, cut, full}} {
		wg.Add(1)
		go func(seq []reuseReplay) {
			defer wg.Done()
			for _, r := range seq {
				if err := check(r); err != nil {
					t.Errorf("%s: %v", r.name, err)
				}
			}
		}(seq)
	}
	wg.Wait()
}

// TestReplayReuseAllocs pins the reuse itself: a second replay of the same
// trace on the same configuration allocates at most 15 % of the bytes the
// first one, on fresh buffers, did (network, engine and the Result, not the
// ring, edges and heaps).
func TestReplayReuseAllocs(t *testing.T) {
	full, _, _ := reuseReplays(t)
	trace.DrainFreeLists()
	first := full.allocated(t)
	if second := full.allocated(t); second*100 > first*15 {
		t.Fatalf("the second replay of %s allocated %d B, the first %d B: want ≤ 15 %%", full.name, second, first)
	}
}

// TestReplayAllocsRepeatable: what a replay allocates does not depend on how
// many garbage collections ran since the last one, in memory or streamed
// from FTT1 (a sync.Pool is emptied by the second). It holds to 1 KiB, not
// to the byte: a run's small allocations outside the replay buffers (fmt's
// printers sit in a sync.Pool) move by a few hundred bytes, where a Stream
// allocated anew costs ≥ 8 KiB here (an edge chunk).
func TestReplayAllocsRepeatable(t *testing.T) {
	full, _, small := reuseReplays(t)
	for _, r := range []reuseReplay{full, small} {
		r.allocated(t) // the free lists now hold r's buffers
		want := r.allocated(t)
		runtime.GC()
		runtime.GC()
		if got := r.allocated(t); got > want+1024 || want > got+1024 {
			t.Errorf("%s allocated %d B after two collections, %d B without", r.name, got, want)
		}
	}
}

// TestFreeListsBounded: however many replays release at once, the free
// lists keep at most GOMAXPROCS (as the package initialised) Streams and
// read buffers, and no Stream whose ring outgrew DefaultStreamWindow.
func TestFreeListsBounded(t *testing.T) {
	trace.DrainFreeLists()
	procs := trace.FreeListCap
	rd, err := trace.NewReader(bytes.NewReader(encodedLU4(t)))
	if err != nil {
		t.Fatal(err)
	}
	var open []*trace.Stream
	for range procs + 2 {
		s, err := trace.NewStream(rd, 4, 4, trace.StreamOptions{Window: 8}) // binds: the cursor stays open
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, s)
	}
	for _, s := range open {
		s.Release()
	}
	if s, r := trace.FreeListLens(); s != procs || r != procs {
		t.Fatalf("after %d releases the free lists hold %d Streams and %d read buffers, want GOMAXPROCS = %d of each", len(open), s, r, procs)
	}

	trace.DrainFreeLists()
	b := trace.NewBuilder("big", 1)
	b.Grow(trace.DefaultStreamWindow+1, 0)
	for range trace.DefaultStreamWindow + 1 {
		b.Add(0, 0, 0)
	}
	big, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := trace.NewWorkload(big, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	if n, _ := trace.FreeListLens(); n != 0 {
		t.Fatalf("the free list kept a Stream with a %d-slot ring", len(big.Events))
	}
}

// TestRecycledReaderKeepsNoSource: the read buffer a streamed FTT1 replay
// hands on pins neither the section reader nor the source behind it, whether
// the replay read to the end or was cut short by MaxCycles.
func TestRecycledReaderKeepsNoSource(t *testing.T) {
	data := encodedLU4(t)
	for _, maxCycles := range []int64{0, 50} {
		trace.DrainFreeLists()
		src := bytes.NewReader(data)
		freed := make(chan struct{})
		runtime.SetFinalizer(src, func(*bytes.Reader) { close(freed) })
		rd, err := trace.NewReader(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.RunTrace(context.Background(), core.FastTrack(4, 2, 1), rd, core.TraceOptions{MaxCycles: maxCycles, StreamWindow: 8})
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut != (maxCycles > 0) {
			t.Fatalf("MaxCycles %d: TimedOut = %v", maxCycles, res.TimedOut)
		}
		if _, n := trace.FreeListLens(); n != 1 {
			t.Fatalf("MaxCycles %d: the replay handed on %d read buffers, want 1", maxCycles, n)
		}
		src, rd = nil, nil
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(5 * time.Second):
			t.Fatalf("MaxCycles %d: the FTT1 source is still reachable after the replay and a collection", maxCycles)
		}
	}
}
