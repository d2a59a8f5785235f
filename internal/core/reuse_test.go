package core_test

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"fasttrack/internal/core"
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
// small enough to bind (fewer PEs, a shorter ring, a smaller edge pool).
func reuseReplays(t *testing.T) (full, cut, small reuseReplay) {
	t.Helper()
	lu, err := dataflow.Trace(dataflow.Benchmarks()[0], 16, 16, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ftt bytes.Buffer
	if err := trace.EncodeBinary(&ftt, goldenTraces(t)[2]); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(ftt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	full = reuseReplay{"lu16", core.FastTrack(16, 2, 1), lu, core.TraceOptions{}}
	cut = reuseReplay{"lu16-cut", full.cfg, lu, core.TraceOptions{MaxCycles: 300}}
	small = reuseReplay{"lu4-window8", core.FastTrack(4, 2, 1), rd, core.TraceOptions{StreamWindow: 8}}
	return full, cut, small
}

func (r reuseReplay) run() (core.Result, error) {
	return core.RunTrace(context.Background(), r.cfg, r.src, r.opts)
}

// fresh replays r on new buffers: released Streams wait in a sync.Pool,
// which drops what it holds at the second garbage collection after the put.
func (r reuseReplay) fresh(t *testing.T) core.Result {
	t.Helper()
	runtime.GC()
	runtime.GC()
	res, err := r.run()
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	return res
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
	inMem, err := core.RunTrace(context.Background(), small.cfg, goldenTraces(t)[2], core.TraceOptions{})
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

// TestReleasedStreamKeepsNoTrace: a replayed trace is collectable once its
// caller drops it, although the Stream that replayed it waits in the pool
// (a sync.Pool keeps its contents reachable through the first collection),
// so a released Stream holds no cursor, header or dependency-list alias.
func TestReleasedStreamKeepsNoTrace(t *testing.T) {
	tr := goldenTraces(t)[2]
	freed := make(chan struct{})
	runtime.SetFinalizer(tr, func(*trace.Trace) { close(freed) })
	if _, err := core.RunTrace(context.Background(), core.FastTrack(4, 2, 1), tr, core.TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	tr = nil
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("the replayed trace is still reachable after Release and a collection")
	}
}

// TestReplayReuseAllocs pins the reuse itself: a second replay of the same
// trace on the same configuration allocates at most 15 % of the first one's
// bytes (network, engine and the Result, not the ring, edges and heaps).
// Two collections empty the pool before the first replay. The second one
// finds the first's Stream even if a collection runs in between, since a
// sync.Pool frees its contents only at the second collection after the put;
// GOMAXPROCS is 1 because a put lands in the current P's private slot,
// which a Get from another P cannot see. Under the race detector a
// sync.Pool drops a random quarter of its puts, so there the gate asks one
// of up to a dozen later replays to meet the bound.
func TestReplayReuseAllocs(t *testing.T) {
	full, _, _ := reuseReplays(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC()
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := full.run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := allocated()
	for try := 1; ; try++ {
		second := allocated()
		if second*100 <= first*15 {
			return
		}
		if try == 12 {
			t.Fatalf("replays of %s after the first allocated %d B, first %d B: want ≤ 15 %%", full.name, second, first)
		}
	}
}
