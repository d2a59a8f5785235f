package traffic

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

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

// generated returns the total packets v has created so far.
func generated(v *SynthView) int64 {
	var total int64
	for _, g := range v.generated {
		total += int64(g)
	}
	return total
}
