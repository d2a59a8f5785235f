package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// replayLog drives a workload on an instant-delivery network (every offered
// packet injected and delivered the same cycle) and returns the sequence of
// (cycle, pe, event, Gen) injections — a complete observable schedule, so
// two workloads with equal logs are interchangeable to the engine.
type replayEvent struct {
	cycle int64
	pe    int
	ev    int32
	gen   int64
}

type replayable interface {
	Tick(now int64)
	Pending(pe int, now int64) (noc.Packet, bool)
	Injected(pe int, now int64)
	Delivered(p noc.Packet, now int64)
	Done() bool
}

func replayInstant(t *testing.T, w replayable, pes int, maxCycles int64) []replayEvent {
	t.Helper()
	var log []replayEvent
	for now := int64(0); !w.Done(); now++ {
		if now > maxCycles {
			t.Fatalf("replay did not finish within %d cycles", maxCycles)
		}
		w.Tick(now)
		for pe := 0; pe < pes; pe++ {
			for {
				p, ok := w.Pending(pe, now)
				if !ok {
					break
				}
				log = append(log, replayEvent{cycle: now, pe: pe, ev: p.Event, gen: p.Gen})
				w.Injected(pe, now)
				w.Delivered(p, now)
			}
		}
	}
	return log
}

func randomDAG(t *testing.T, seed uint64, pes, n int) *Trace {
	t.Helper()
	rng := xrand.New(seed)
	b := NewBuilder("stream/dag", pes)
	for i := 0; i < n; i++ {
		var deps []int32
		for d := i - 1; d >= 0 && len(deps) < 3; d-- {
			if rng.Bool(0.25) {
				deps = append(deps, int32(d))
			}
		}
		b.Add(rng.Intn(pes), rng.Intn(pes), int32(rng.Intn(6)), deps...)
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestStreamMatchesWorkload: with a non-binding window the replay must
// produce the exact injection schedule of the oracle Workload — through
// NewWorkload (window off) and through NewStream on both the in-memory
// Source and the binary Reader.
func TestStreamMatchesWorkload(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		tr := randomDAG(t, seed, 4, 120)
		wl, err := newOracle(tr, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := replayInstant(t, wl, 4, 10000)

		var buf bytes.Buffer
		if err := EncodeBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		build := []func() (*Stream, error){
			func() (*Stream, error) { return NewWorkload(tr, 2, 2) },
			func() (*Stream, error) { return NewStream(tr, 2, 2, StreamOptions{}) },
			func() (*Stream, error) { return NewStream(mustReader(t, buf.Bytes()), 2, 2, StreamOptions{}) },
		}
		for _, b := range build {
			st, err := b()
			if err != nil {
				t.Fatal(err)
			}
			got := replayInstant(t, st, 4, 10000)
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d: %d injections, want %d", seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d: injection %d = %+v, want %+v", seed, i, got[i], want[i])
				}
			}
			if st.Completed() != len(tr.Events) {
				t.Fatalf("seed %d: completed %d of %d", seed, st.Completed(), len(tr.Events))
			}
		}
	}
}

func mustReader(t *testing.T, data []byte) *Reader {
	t.Helper()
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// TestStreamSmallWindow: a binding window must still complete every event
// and never offer an event before its dependencies completed — only timing
// may shift (read backpressure), and only later: against the oracle's
// schedule every event is injected exactly once, by the same PE, never
// earlier.
func TestStreamSmallWindow(t *testing.T) {
	tr := randomDAG(t, 11, 4, 200)
	wl, err := newOracle(tr, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int32]replayEvent{}
	for _, inj := range replayInstant(t, wl, 4, 100000) {
		want[inj.ev] = inj
	}
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 2, 7, 32} {
		st, err := NewStream(mustReader(t, buf.Bytes()), 2, 2, StreamOptions{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		completed := make([]bool, len(tr.Events))
		injected := 0
		var now int64
		for ; !st.Done(); now++ {
			if now > 100000 {
				t.Fatalf("window %d: stalled", window)
			}
			st.Tick(now)
			for pe := 0; pe < 4; pe++ {
				for {
					p, ok := st.Pending(pe, now)
					if !ok {
						break
					}
					for _, d := range tr.Events[p.Event].Deps {
						if !completed[d] && tr.Events[d].Src != tr.Events[d].Dst {
							t.Fatalf("window %d: event %d offered before dep %d", window, p.Event, d)
						}
					}
					ref, ok := want[p.Event]
					if !ok || completed[p.Event] || ref.pe != pe || now < ref.cycle {
						t.Fatalf("window %d: event %d injected by PE %d at cycle %d; oracle %+v (known %v, repeat %v)",
							window, p.Event, pe, now, ref, ok, completed[p.Event])
					}
					injected++
					st.Injected(pe, now)
					completed[p.Event] = true
					st.Delivered(p, now)
				}
			}
			// Self events retire inside Tick; account for them.
			for i, e := range tr.Events {
				if e.Src == e.Dst {
					completed[i] = true
				}
			}
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		if st.Completed() != len(tr.Events) || injected != len(want) {
			t.Fatalf("window %d: completed %d of %d, injected %d of %d", window, st.Completed(), len(tr.Events), injected, len(want))
		}
	}
}

func TestStreamRejectsGeometryMismatch(t *testing.T) {
	tr := randomDAG(t, 3, 4, 10)
	if _, err := NewStream(tr, 4, 4, StreamOptions{}); err == nil {
		t.Error("PE mismatch should be rejected")
	}
}

// TestStreamTruncatedSource: a source that ends before its declared event
// count must surface an error through Err, not hang or silently succeed.
func TestStreamTruncatedSource(t *testing.T) {
	tr := randomDAG(t, 9, 4, 400)
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-20]
	st, err := NewStream(mustReader(t, cut), 2, 2, StreamOptions{Window: 16})
	if err == nil {
		// Truncation may only surface once reading reaches the cut.
		for now := int64(0); !st.Done() && now < 100000; now++ {
			st.Tick(now)
			for pe := 0; pe < 4; pe++ {
				if p, ok := st.Pending(pe, now); ok {
					st.Injected(pe, now)
					st.Delivered(p, now)
				}
			}
		}
		err = st.Err()
	}
	if err == nil {
		t.Fatal("truncated source should fail")
	}
}

// writeChain streams a chain-shaped trace (event i depends on i-1) of n
// events to path without materializing it.
func writeChain(t testing.TB, path string, pes, n int) Header {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, "chain/bench", pes)
	if err != nil {
		t.Fatal(err)
	}
	prev := int32(-1)
	for i := 0; i < n; i++ {
		src := i % pes
		dst := (i + 1) % pes
		if prev < 0 {
			prev = w.Add(src, dst, 0)
		} else {
			prev = w.Add(src, dst, 0, prev)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return w.Header()
}

// TestStreamConstantMemory is the allocation gate for the constant-memory
// claim: replaying a trace 64× longer must not allocate meaningfully more
// than replaying the short one, because replay state is O(window), not
// O(events). (A materializing path would allocate ~56 bytes/event — the
// long trace would show up as tens of megabytes here.)
func TestStreamConstantMemory(t *testing.T) {
	dir := t.TempDir()
	const pes = 4
	short := filepath.Join(dir, "short.ftt")
	long := filepath.Join(dir, "long.ftt")
	writeChain(t, short, pes, 16_000)
	writeChain(t, long, pes, 1_024_000)

	replayAllocs := func(path string) uint64 {
		rd, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := NewStream(rd, pes, 1, StreamOptions{Window: 4096})
		if err != nil {
			t.Fatal(err)
		}
		for now := int64(0); !st.Done(); now++ {
			st.Tick(now)
			for pe := 0; pe < pes; pe++ {
				for {
					p, ok := st.Pending(pe, now)
					if !ok {
						break
					}
					st.Injected(pe, now)
					st.Delivered(p, now)
				}
			}
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		if st.Completed() != int(rd.Header().Events) {
			t.Fatalf("completed %d of %d", st.Completed(), rd.Header().Events)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	shortAllocs := replayAllocs(short)
	longAllocs := replayAllocs(long)
	// Allow generous slack for runtime noise; the point is that 64× the
	// events must not mean anywhere near 64× the allocation.
	if longAllocs > shortAllocs*4+4<<20 {
		t.Fatalf("streaming replay allocation scales with events: %d bytes for 16k events, %d for 1M", shortAllocs, longAllocs)
	}
}

// BenchmarkReplayStreaming measures end-to-end streaming replay (decode +
// dependency-driven scheduling on an instant-delivery drain) and reports
// the wire density. The allocation gate lives in TestStreamConstantMemory.
func BenchmarkReplayStreaming(b *testing.B) {
	const pes, n = 4, 200_000
	path := filepath.Join(b.TempDir(), "bench.ftt")
	writeChain(b, path, pes, n)
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	rd, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer rd.Close()
	b.ReportAllocs()
	b.SetBytes(fi.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := NewStream(rd, pes, 1, StreamOptions{Window: 4096})
		if err != nil {
			b.Fatal(err)
		}
		for now := int64(0); !st.Done(); now++ {
			st.Tick(now)
			for pe := 0; pe < pes; pe++ {
				for {
					p, ok := st.Pending(pe, now)
					if !ok {
						break
					}
					st.Injected(pe, now)
					st.Delivered(p, now)
				}
			}
		}
		if err := st.Err(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fi.Size())/float64(n), "bytes/event")
}

// TestStreamHeadDisplacedAfterRefusal builds the case a Stream's change
// report must catch: PE 0's head becomes ready at cycle T and is refused, and
// a delivery later in that same cycle readies a lower-index event of PE 0
// with the same ready time. The per-PE heap orders by (readyAt, index), so
// the next cycle's head is the new event — unless Changed reports PE 0
// again, the offer latched in the network at T injects the wrong packet.
func TestStreamHeadDisplacedAfterRefusal(t *testing.T) {
	const T = 3
	b := NewBuilder("stream/displaced", 4)
	root := b.Add(1, 2, 0)        // delivered at cycle T
	early := b.Add(0, 3, 0, root) // ready the cycle root is delivered
	late := b.Add(0, 3, T)        // root event of PE 0, ready at T
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewWorkload(tr, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	st.Tick(0)
	st.Changed(nil) // the first call arms the report
	rootPkt, ok := st.Pending(1, 0)
	if !ok || rootPkt.Event != root {
		t.Fatalf("cycle 0: PE 1 offers %+v, %v; want event %d", rootPkt, ok, root)
	}
	st.Injected(1, 0)
	for now := int64(1); now <= T; now++ {
		st.Tick(now)
		if got := st.Changed(nil); (now == T) != slices.Contains(got, 0) {
			t.Fatalf("cycle %d: Changed = %v; PE 0's head becomes ready at %d", now, got, T)
		}
	}
	if p, ok := st.Pending(0, T); !ok || p.Event != late {
		t.Fatalf("cycle %d: PE 0 offers %+v, %v; want event %d", T, p, ok, late)
	}
	// The network refuses PE 0 (no Injected), then delivers root.
	st.Delivered(rootPkt, T)
	st.Tick(T + 1)
	if got := st.Changed(nil); !slices.Contains(got, 0) {
		t.Fatalf("cycle %d: Changed = %v does not report PE 0's displaced head", T+1, got)
	}
	p, ok := st.Pending(0, T+1)
	if !ok || p.Event != early || p.Gen != T {
		t.Fatalf("cycle %d: PE 0 offers %+v, %v; want the displacing event %d generated at %d", T+1, p, ok, early, T)
	}
}
