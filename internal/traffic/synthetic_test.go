package traffic

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// TestSyntheticBatchStreamEquivalence holds the one production generator to
// the straight-line per-cycle oracle (oracle_test.go) packet for packet —
// ID, Src, Dst, Gen, order per PE, Done and the active set — under an
// adversarial drain schedule that leaves queues non-empty across ticks, so
// they grow, wrap and compact. The matrix crosses the four paper patterns
// with B ∈ {1, 3} generators of consecutive seeds, each held to its own
// oracle over the whole PE range (the "shards=1" label: one range). This
// pins the event-driven generator's claim that it replays the exact per-PE
// RNG streams a per-cycle generator consumes.
func TestSyntheticBatchStreamEquivalence(t *testing.T) {
	for _, name := range []string{"RANDOM", "TRANSPOSE", "BITCOMPL", "LOCAL"} {
		pat, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			for _, b := range []int{1, 3} {
				t.Run(fmt.Sprintf("B=%d/shards=1", b), func(t *testing.T) {
					streamEquivalence(t, pat, b)
				})
			}
		})
	}
}

// streamEquivalence is one cell of TestSyntheticBatchStreamEquivalence: b
// generators against b oracles.
func streamEquivalence(t *testing.T, pat Pattern, b int) {
	const w, h, n, quota, seed = 4, 4, 16, 12, 9
	const rate = 0.35
	gens := make([]*SynthView, b)
	oracles := make([]*oracleGen, b)
	for i := range gens {
		gens[i] = NewSynthetic(w, h, pat, rate, quota, seed+uint64(i))
		oracles[i] = newOracle(w, h, pat, rate, quota, seed+uint64(i))
	}
	drain := xrand.New(4242)
	for now := int64(0); ; now++ {
		if now == 4000 {
			t.Fatal("workloads did not drain within the test horizon")
		}
		allDone := true
		for i, ref := range oracles {
			g := gens[i]
			ref.Tick(now)
			g.Tick(now)
			for pe := 0; pe < n; pe++ {
				want, wantOK := ref.Pending(pe)
				got, gotOK := g.Pending(pe, now)
				if wantOK != gotOK || want != got {
					t.Fatalf("cycle %d generator %d pe %d: pending mismatch\noracle: %v %+v\ngot:    %v %+v", now, i, pe, wantOK, want, gotOK, got)
				}
				if wantOK && drain.Bool(0.6) {
					ref.Injected(pe)
					g.Injected(pe, now)
				}
			}
			if ref.Done() != g.Done() {
				t.Fatalf("cycle %d generator %d: Done mismatch oracle=%v got=%v", now, i, ref.Done(), g.Done())
			}
			// The active set is a set: its order (insertion order) is the
			// generator's business.
			active := g.ActivePEs(nil)
			sort.Ints(active)
			if !reflect.DeepEqual(active, ref.Active()) {
				t.Fatalf("cycle %d generator %d: active set %v, oracle has queued packets at %v", now, i, active, ref.Active())
			}
			allDone = allDone && g.Done()
		}
		if allDone {
			break
		}
	}
	for i, ref := range oracles {
		var total int64
		for _, g := range ref.generated {
			total += int64(g)
		}
		if got := generated(gens[i]); got != total || total == 0 {
			t.Fatalf("generator %d generated %d packets, oracle %d", i, got, total)
		}
	}
}

// TestSyntheticBatchNextEvent checks the idle-skip probes: NextEventCycle
// is exactly the first future cycle at which Tick enqueues something, and
// QueueEmpty tracks pending packets.
func TestSyntheticBatchNextEvent(t *testing.T) {
	pat, err := ByName("RANDOM")
	if err != nil {
		t.Fatal(err)
	}
	v := NewSynthetic(4, 4, pat, 0.02, 3, 5)
	if !v.QueueEmpty() {
		t.Fatal("fresh workload must have empty queues")
	}
	var now int64
	for !v.Done() && now < 100000 {
		next := v.NextEventCycle(now)
		if v.QueueEmpty() && next > now {
			// Ticking any cycle before next must enqueue nothing.
			probe := next - 1
			v.Tick(probe)
			if !v.QueueEmpty() {
				t.Fatalf("tick %d (before predicted event %d) enqueued work", probe, next)
			}
			now = next
			continue
		}
		v.Tick(now)
		if next == now && v.QueueEmpty() {
			t.Fatalf("predicted event at %d enqueued nothing", now)
		}
		for pe := 0; pe < 16; pe++ {
			if _, ok := v.Pending(pe, now); ok {
				v.Injected(pe, now)
			}
		}
		now++
	}
	if !v.Done() {
		t.Fatal("workload did not drain")
	}
	if v.NextEventCycle(now) != math.MaxInt64 {
		t.Fatal("drained workload must report no next event")
	}
}

// FuzzSyntheticVsOracle holds the generator to the per-cycle oracle
// (oracle_test.go) over the shapes TestSyntheticBatchStreamEquivalence does
// not reach: w, h ∈ 2..6, every pattern (Hotspot included), rates from 0
// through tiny to 1.0, quotas 0..20 and any drain probability. Every cycle
// it compares each PE's head packet, Done, the active set and QueueEmpty.
// The generator's queues are implicit — Injected draws the next packet from
// the RNG stream only when the head leaves — so the comparison pins that a
// packet's Gen and Dst do not depend on when it is drawn. Like the engine's
// idle skip, the generator is not ticked while its queues are empty and its
// next event lies ahead. Encoding: w = 2 + w%5 (h alike), pattern indexes
// pats, rate = (rate%10001)/10000, quota = quota%21, drain probability =
// drain/255; the run stops once both are done or at cycle 2000.
func FuzzSyntheticVsOracle(f *testing.F) {
	// TestSyntheticBatchStreamEquivalence's cells: 4×4, rate 0.35, quota 12,
	// seeds 9..11, drain probability 0.6 (seed 9 replays its B=1 cells).
	for pat := uint8(0); pat < 4; pat++ {
		for seed := uint64(9); seed < 12; seed++ {
			f.Add(uint8(2), uint8(2), pat, uint16(3500), uint8(12), seed, uint8(153))
		}
	}
	f.Add(uint8(0), uint8(4), uint8(4), uint16(10000), uint8(20), uint64(1), uint8(40)) // 2×6 TORNADO, rate 1.0
	f.Add(uint8(3), uint8(1), uint8(5), uint16(10000), uint8(7), uint64(2), uint8(0))   // 5×3 HOTSPOT, never drained
	f.Add(uint8(4), uint8(4), uint8(3), uint16(0), uint8(5), uint64(3), uint8(255))     // rate 0: never done
	f.Add(uint8(1), uint8(2), uint8(0), uint16(1), uint8(3), uint64(4), uint8(200))     // rate 0.0001
	f.Add(uint8(2), uint8(2), uint8(1), uint16(100), uint8(2), uint64(5), uint8(128))   // rate 0.01
	f.Add(uint8(2), uint8(0), uint8(3), uint16(4000), uint8(0), uint64(6), uint8(128))  // quota 0
	f.Add(uint8(4), uint8(4), uint8(5), uint16(5000), uint8(20), uint64(7), uint8(255)) // 6×6, always drained
	f.Fuzz(func(t *testing.T, wb, hb, patb uint8, rateb uint16, quotab uint8, seed uint64, drainb uint8) {
		w, h := 2+int(wb)%5, 2+int(hb)%5
		n := w * h
		pats := []Pattern{Random{}, Local{}, BitComplement{}, Transpose{}, Tornado{},
			Hotspot{Hot: noc.PECoord(int(seed%uint64(n)), w)}}
		pat := pats[int(patb)%len(pats)]
		if ValidateDims(pat, w, h) != nil {
			t.Skip()
		}
		rate, quota, p := float64(rateb%10001)/10000, int(quotab)%21, float64(drainb)/255
		g := NewSynthetic(w, h, pat, rate, quota, seed)
		ref := newOracle(w, h, pat, rate, quota, seed)
		drain := xrand.New(4242)
		for now := int64(0); now < 2000 && !(ref.Done() && g.Done()); now++ {
			ref.Tick(now)
			if !g.QueueEmpty() || g.NextEventCycle(now) <= now {
				g.Tick(now)
			}
			for pe := 0; pe < n; pe++ {
				want, wantOK := ref.Pending(pe)
				got, gotOK := g.Pending(pe, now)
				if wantOK != gotOK || want != got {
					t.Fatalf("cycle %d pe %d: pending mismatch\noracle: %v %+v\ngot:    %v %+v", now, pe, wantOK, want, gotOK, got)
				}
				if wantOK && drain.Bool(p) {
					ref.Injected(pe)
					g.Injected(pe, now)
				}
			}
			if ref.Done() != g.Done() {
				t.Fatalf("cycle %d: Done mismatch oracle=%v got=%v", now, ref.Done(), g.Done())
			}
			active := g.ActivePEs(nil)
			sort.Ints(active)
			if want := ref.Active(); !reflect.DeepEqual(active, want) || g.QueueEmpty() != (len(want) == 0) {
				t.Fatalf("cycle %d: active set %v (QueueEmpty %v), oracle has queued packets at %v", now, active, g.QueueEmpty(), want)
			}
		}
	})
}

// generated returns the total packets v has generated, read at the end of a
// run: the queues are implicit, but Done (the oracle's too) requires every
// generated packet injected, so the injected counts sum to it.
func generated(v *SynthView) int64 {
	var total int64
	for _, g := range v.injected {
		total += int64(g)
	}
	return total
}
