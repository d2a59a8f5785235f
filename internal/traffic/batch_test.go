package traffic

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"fasttrack/internal/noc"
	"fasttrack/internal/xrand"
)

// TestSyntheticBatchStreamEquivalence holds the one production generator to
// the straight-line per-cycle oracle (oracle_test.go) packet for packet —
// ID, Src, Dst, Gen, order per PE, Done and the active set — under an
// adversarial drain schedule that leaves queues non-empty across ticks, so
// they grow, wrap and compact. The matrix crosses the four paper patterns
// with B ∈ {1, 3} siblings sharing the flat arrays and with instance 0 either
// unpartitioned or ticked as four shards (repartitioned mid-run, queues and
// live lists in flight). Siblings are never partitioned and are held to
// their own oracles, so ConfigureShards on one view cannot perturb another.
// This pins the event-driven generator's claim that it replays the exact
// per-PE RNG streams a per-cycle generator consumes.
func TestSyntheticBatchStreamEquivalence(t *testing.T) {
	for _, name := range []string{"RANDOM", "TRANSPOSE", "BITCOMPL", "LOCAL"} {
		pat, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			for _, b := range []int{1, 3} {
				for _, shards := range []int{1, 4} {
					t.Run(fmt.Sprintf("B=%d/shards=%d", b, shards), func(t *testing.T) {
						streamEquivalence(t, pat, b, shards)
					})
				}
			}
		})
	}
}

// streamEquivalence is one cell of TestSyntheticBatchStreamEquivalence: b
// instances against b oracles, instance 0 ticked as `shards` shards.
func streamEquivalence(t *testing.T, pat Pattern, b, shards int) {
	const w, h, n, quota, seed = 4, 4, 16, 12, 9
	const rate = 0.35
	specs := make([]SynthSpec, b)
	oracles := make([]*oracleGen, b)
	for i := range specs {
		specs[i] = SynthSpec{Pattern: pat, Rate: rate, Quota: quota, Seed: seed + uint64(i)}
		oracles[i] = newOracle(w, h, specs[i])
	}
	sb := NewSyntheticBatch(w, h, specs)
	if shards > 1 && !sb.View(0).ConfigureShards([]int{0, 4, 8, 12, 16}) {
		t.Fatal("ConfigureShards rejected a valid partition")
	}
	drain := xrand.New(4242)
	for now := int64(0); ; now++ {
		if now == 4000 {
			t.Fatal("workloads did not drain within the test horizon")
		}
		if shards > 1 && now == 25 && !sb.View(0).ConfigureShards([]int{0, 3, 9, 10, 16}) {
			t.Fatal("mid-run repartition rejected")
		}
		allDone := true
		for i, ref := range oracles {
			view := sb.View(i)
			sharded := i == 0 && shards > 1
			ref.Tick(now)
			if sharded {
				for k := 0; k < shards; k++ {
					view.TickShard(k, now)
				}
			} else {
				view.Tick(now)
			}
			for pe := 0; pe < n; pe++ {
				want, wantOK := ref.Pending(pe)
				got, gotOK := view.Pending(pe, now)
				if wantOK != gotOK || want != got {
					t.Fatalf("cycle %d instance %d pe %d: pending mismatch\noracle: %v %+v\ngot:    %v %+v", now, i, pe, wantOK, want, gotOK, got)
				}
				if wantOK && drain.Bool(0.6) {
					ref.Injected(pe)
					view.Injected(pe, now)
				}
			}
			if ref.Done() != view.Done() {
				t.Fatalf("cycle %d instance %d: Done mismatch oracle=%v got=%v", now, i, ref.Done(), view.Done())
			}
			// The active set is a set: its order (insertion order,
			// shard-major) is the generator's business.
			var active []int
			if sharded {
				for k := 0; k < shards; k++ {
					active = view.ActiveShard(k, active)
				}
			} else {
				active = view.ActivePEs(nil)
			}
			sort.Ints(active)
			if !reflect.DeepEqual(active, ref.Active()) {
				t.Fatalf("cycle %d instance %d: active set %v, oracle has queued packets at %v", now, i, active, ref.Active())
			}
			allDone = allDone && view.Done()
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
		if got := sb.View(i).Generated(); got != total || total == 0 {
			t.Fatalf("instance %d generated %d packets, oracle %d", i, got, total)
		}
	}
}

// TestSyntheticShardsConcurrent drives one instance's four shards from four
// goroutines with no barrier between them — each runs TickShard, ActiveShard,
// Pending and Injected over its own PE range for the whole run — and requires
// every shard's packet stream to equal the sequential single-goroutine
// stream. Under -race (make race-shards) this is the generator's data-race
// gate: shards must share no mutable word.
func TestSyntheticShardsConcurrent(t *testing.T) {
	const w, h, cycles = 8, 8, 600
	bounds := []int{0, 16, 32, 48, 64}
	// The drain decision is a pure function of (pe, cycle), so it cannot
	// depend on goroutine interleaving.
	drains := func(pe int, now int64) bool { return (pe*31+int(now)*17)%5 < 3 }

	// Sequential reference: one goroutine, unpartitioned, cycle-major; the
	// injected packets are binned by the shard that will own their source.
	seq := NewSynthetic(w, h, Random{}, 0.5, 40, 99)
	want := make([][]noc.Packet, 4)
	for now := int64(0); now < cycles; now++ {
		seq.Tick(now)
		for pe := 0; pe < w*h; pe++ {
			if p, ok := seq.Pending(pe, now); ok && drains(pe, now) {
				want[pe/16] = append(want[pe/16], p)
				seq.Injected(pe, now)
			}
		}
	}

	par := NewSynthetic(w, h, Random{}, 0.5, 40, 99)
	if !par.ConfigureShards(bounds) {
		t.Fatal("ConfigureShards rejected a valid partition")
	}
	got := make([][]noc.Packet, 4)
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var live []int
			for now := int64(0); now < cycles; now++ {
				par.TickShard(k, now)
				live = par.ActiveShard(k, live[:0])
				sort.Ints(live) // the reference walks PEs ascending
				for _, pe := range live {
					if p, ok := par.Pending(pe, now); ok && drains(pe, now) {
						got[k] = append(got[k], p)
						par.Injected(pe, now)
					}
				}
			}
		}(k)
	}
	wg.Wait()
	for k := range got {
		if len(got[k]) == 0 || !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("shard %d: concurrent stream (%d packets) differs from sequential (%d packets)", k, len(got[k]), len(want[k]))
		}
	}
	if par.Done() != seq.Done() || par.Generated() != seq.Generated() {
		t.Errorf("aggregate state differs: done %v/%v generated %d/%d", par.Done(), seq.Done(), par.Generated(), seq.Generated())
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
	sb := NewSyntheticBatch(4, 4, []SynthSpec{{Pattern: pat, Rate: 0.02, Quota: 3, Seed: 5}})
	v := sb.View(0)
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
