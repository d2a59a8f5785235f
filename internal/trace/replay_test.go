package trace

import (
	"reflect"
	"sort"
	"testing"

	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// TestReplayRejectsInvalidEvents: the replay checks every event it admits,
// so a hand-built *Trace (or any Source that validates nothing) fails in the
// constructor with Validate's message instead of indexing past the per-PE
// queues (endpoint out of range) or aliasing a ring slot and never finishing
// (forward dependency).
func TestReplayRejectsInvalidEvents(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
	}{
		{"endpoint out of range", []Event{{Src: 7, Dst: 1}}},
		{"forward dependency", []Event{{Src: 0, Dst: 1, Deps: []int32{1}}, {Src: 1, Dst: 2}}},
		{"negative dependency", []Event{{Src: 0, Dst: 1}, {Src: 1, Dst: 2, Deps: []int32{-1}}}},
		{"negative delay", []Event{{Src: 0, Dst: 1}, {Src: 1, Dst: 2, Delay: -3}}},
	}
	for _, c := range cases {
		tr := &Trace{Name: "bad", PEs: 4, Events: c.events}
		want := tr.Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepts the trace", c.name)
		}
		_, errStream := NewStream(tr, 2, 2, StreamOptions{})
		_, errWorkload := NewWorkload(tr, 2, 2)
		for ctor, err := range map[string]error{"NewStream": errStream, "NewWorkload": errWorkload} {
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s: %s error = %v, want %v", c.name, ctor, err, want)
			}
		}
	}
}

// fuzzDAG builds a seeded random trace on 4 PEs: up to 3 dependencies per
// event drawn from near and far predecessors (duplicates allowed), about a
// quarter self-addressed events, delays in [0,5].
func fuzzDAG(t *testing.T, seed uint64, n int) *Trace {
	t.Helper()
	const pes = 4
	rng := xrand.New(seed)
	b := NewBuilder("fuzz/dag", pes)
	for i := 0; i < n; i++ {
		var deps []int32
		for k := rng.Intn(4); k > 0 && i > 0; k-- {
			span := i
			if rng.Bool(0.7) && span > 8 {
				span = 8
			}
			deps = append(deps, int32(i-1-rng.Intn(span)))
		}
		src, dst := rng.Intn(pes), rng.Intn(pes)
		if rng.Bool(0.25) {
			dst = src
		}
		b.Add(src, dst, int32(rng.Intn(6)), deps...)
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

type flight struct {
	at int64
	p  noc.Packet
}

// replayLatency drives w on a contention-free network that accepts every
// offer at once and delivers event ev lat(ev) cycles later (deliveries due
// in one cycle land in event order, after that cycle's offers). check, when
// non-nil, runs after Tick, before each injection and at the end of every
// cycle. Besides the injection log it returns every cycle's ActivePEs
// enumeration (cycles separated by -1): results do not depend on that order,
// but an observer sees offers and stalls in it.
func replayLatency(t *testing.T, w activeReplayable, pes int, lat func(ev int32) int64, check func(now int64, offered *noc.Packet)) (log []replayEvent, active []int) {
	t.Helper()
	var inFlight []flight
	for now := int64(0); !w.Done(); now++ {
		if now > 1_000_000 {
			t.Fatalf("replay did not finish: %d injections, %d in flight", len(log), len(inFlight))
		}
		w.Tick(now)
		active = append(w.ActivePEs(active), -1)
		if check != nil {
			check(now, nil)
		}
		for pe := 0; pe < pes; pe++ {
			for {
				p, ok := w.Pending(pe, now)
				if !ok {
					break
				}
				if check != nil {
					check(now, &p)
				}
				log = append(log, replayEvent{cycle: now, pe: pe, ev: p.Event, gen: p.Gen})
				w.Injected(pe, now)
				inFlight = append(inFlight, flight{at: now + lat(p.Event), p: p})
			}
		}
		sort.Slice(inFlight, func(i, j int) bool {
			if inFlight[i].at != inFlight[j].at {
				return inFlight[i].at < inFlight[j].at
			}
			return inFlight[i].p.Event < inFlight[j].p.Event
		})
		due := 0
		for due < len(inFlight) && inFlight[due].at <= now {
			w.Delivered(inFlight[due].p, now)
			due++
		}
		inFlight = inFlight[due:]
		if check != nil {
			check(now, nil)
		}
	}
	return log, active
}

type activeReplayable interface {
	replayable
	ActivePEs(buf []int) []int
}

// FuzzReplayVsOracle holds Stream against the oracle Workload on random
// DAGs with self events, compute delays and per-event delivery latencies.
// With every event resident (NewWorkload, and NewStream at Window = events)
// the (cycle, pe, event, Gen) injection schedule and the per-cycle live-PE
// enumeration must be the oracle's. With
// a smaller window — which may bind — only timing may shift, and only later:
// no event is offered (or, for a self event, completed) before its
// dependencies complete, every event completes, each packet event is
// injected once and never earlier than the oracle injects it, resident
// slots never exceed the window, and the pooled edges in use never exceed
// the dependency count of the resident events (the pool is O(window), and
// every edge is back on the free list at the end).
func FuzzReplayVsOracle(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint64(7))
	f.Add(uint64(2), uint16(250), uint64(0))
	f.Add(uint64(3), uint16(1), uint64(3))
	f.Add(uint64(0xfeed), uint16(399), uint64(11))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, latSeed uint64) {
		n := int(size)%400 + 1
		tr := fuzzDAG(t, seed, n)
		lat := func(ev int32) int64 { return int64((uint64(ev)*0x9e3779b97f4a7c15 + latSeed) >> 61) } // 0..7
		oracle, err := newOracle(tr, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, wantActive := replayLatency(t, oracle, 4, lat, nil)
		wantCycle := make(map[int32]int64, len(want))
		for _, inj := range want {
			wantCycle[inj.ev] = inj.cycle
		}

		exact := func(label string, st *Stream, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got, gotActive := replayLatency(t, st, 4, lat, nil)
			if len(got) != len(want) {
				t.Fatalf("%s: %d injections, oracle %d", label, len(got), len(want))
			}
			if !reflect.DeepEqual(gotActive, wantActive) {
				t.Fatalf("%s: live-PE enumeration differs from the oracle's", label)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: injection %d = %+v, oracle %+v", label, i, got[i], want[i])
				}
			}
			if st.Err() != nil || st.Completed() != n || liveEdges(t, st) != 0 {
				t.Fatalf("%s: err %v, completed %d of %d, %d edges still in use", label, st.Err(), st.Completed(), n, liveEdges(t, st))
			}
		}
		st, err := NewWorkload(tr, 2, 2)
		exact("NewWorkload", st, err)
		st, err = NewStream(tr, 2, 2, StreamOptions{Window: n})
		exact("NewStream window=events", st, err)

		for _, window := range []int{n / 2, 3, 1} {
			if window < 1 || window >= n {
				continue
			}
			st, err := NewStream(tr, 2, 2, StreamOptions{Window: window})
			if err != nil {
				t.Fatal(err)
			}
			done := func(ev int32) bool {
				if int64(ev) < st.low {
					return true // retired
				}
				return int64(ev) < st.head && st.ring[int64(ev)%int64(st.window)].doneAt != notDone
			}
			injected := make(map[int32]bool, len(want))
			check := func(now int64, offered *noc.Packet) {
				if offered != nil {
					ev := offered.Event
					for _, d := range tr.Events[ev].Deps {
						if !done(d) {
							t.Fatalf("window %d: event %d offered at cycle %d before dep %d completed", window, ev, now, d)
						}
					}
					if ref, ok := wantCycle[ev]; !ok || injected[ev] || now < ref {
						t.Fatalf("window %d: event %d injected at cycle %d (repeat %v); oracle cycle %d (packet event %v)",
							window, ev, now, injected[ev], ref, ok)
					}
					injected[ev] = true
					return
				}
				if st.head-st.low > int64(window) {
					t.Fatalf("window %d: %d resident slots at cycle %d", window, st.head-st.low, now)
				}
				residentDeps := 0
				for i := st.low; i < st.head; i++ {
					residentDeps += len(tr.Events[i].Deps)
					if done(int32(i)) {
						for _, d := range tr.Events[i].Deps {
							if !done(d) {
								t.Fatalf("window %d: event %d completed by cycle %d before dep %d", window, i, now, d)
							}
						}
					}
				}
				if live := liveEdges(t, st); live > residentDeps {
					t.Fatalf("window %d: %d pooled edges in use at cycle %d, resident events have %d deps", window, live, now, residentDeps)
				}
			}
			replayLatency(t, st, 4, lat, check)
			if st.Err() != nil || st.Completed() != n || len(injected) != len(want) || liveEdges(t, st) != 0 {
				t.Fatalf("window %d: err %v, completed %d of %d, injected %d of %d, %d edges still in use",
					window, st.Err(), st.Completed(), n, len(injected), len(want), liveEdges(t, st))
			}
		}
	})
}

// liveEdges counts the pooled edges not on the free list, checking that the
// pool was carved chunk by chunk and the free list stays inside it.
func liveEdges(t *testing.T, s *Stream) int {
	t.Helper()
	if chunks := (int(s.edgeN) + edgeChunk - 1) / edgeChunk; len(s.edges) != chunks {
		t.Fatalf("%d edges carved from %d chunks, want %d", s.edgeN, len(s.edges), chunks)
	}
	free := 0
	for n := s.freeEdge; n != noEdge; n = s.edgeAt(n).next {
		if n < 0 || n >= s.edgeN {
			t.Fatalf("free list reaches edge %d outside the %d carved", n, s.edgeN)
		}
		if free++; free > int(s.edgeN) {
			t.Fatal("free list loops")
		}
	}
	return int(s.edgeN) - free
}
