package sim_test

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/sim"
	"fasttrack/internal/trace"
	"fasttrack/internal/traffic"
	"fasttrack/internal/xrand"
)

// chainTrace is a closed-loop saturating trace on a w×w torus: every PE runs
// chains independent send chains of quota/chains packets each to random
// destinations, a packet released by the delivery of its chain's previous
// one. Up to chains packets per PE are outstanding at once, which saturates
// an 8×8 fabric while every source queue stays bounded.
func chainTrace(t testing.TB, w, chains, quota int) *trace.Trace {
	t.Helper()
	n := w * w
	b := trace.NewBuilder("chains", n)
	rng := xrand.New(uint64(quota))
	last := make([]int32, n*chains)
	for k := 0; k < quota; k++ {
		for pe := 0; pe < n; pe++ {
			dst := rng.Intn(n - 1)
			if dst >= pe {
				dst++
			}
			c := pe*chains + k%chains
			if k < chains {
				last[c] = b.Add(pe, dst, 0)
			} else {
				last[c] = b.Add(pe, dst, 0, last[c])
			}
		}
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRunHeapFlatInQuota is the heap gate for lists the engine or a workload
// fills every cycle and must drain every cycle — the change report, the
// accepted list, a network's offer lists. A list left undrained on some path
// grows with the packets a run moves, which a malloc count per packet does
// not see (appends that grow are logarithmic in the length); the bytes
// sim.Run allocates do. So a run ten times longer must allocate about as
// many bytes, for saturated Hoplite(8), FastTrack(8,2,1) and
// MultiChannel(8,2) under two workloads, every row gated on the run's bytes
// outright. Closed-loop chain traces keep every source queue bounded; the
// same trace also replays streamed through an FTT1 window. A rate-1.0
// synthetic run backs every source queue up to about its quota, but the
// queues are implicit (a PE stores only its head packet), so it stores
// nothing per queued packet; a low-rate synthetic run's queues stay short.
// Each row also holds the change-driven run to the same run with its change
// report hidden.
func TestRunHeapFlatInQuota(t *testing.T) {
	// As testing.AllocsPerRun does, keep the collector and other Ps from
	// allocating behind the run's back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const small, large = 200, 2000
	type row struct {
		name string
		cfg  core.Config
		// wl builds the workload for a quota; hide hides its change report.
		wl        func(t *testing.T, quota int, hide bool) sim.Workload
		saturated bool
	}
	traces := map[int]*trace.Trace{} // by quota, shared by every row
	chains := func(stream bool) func(*testing.T, int, bool) sim.Workload {
		return func(t *testing.T, quota int, hide bool) sim.Workload {
			tr := traces[quota]
			if tr == nil {
				tr = chainTrace(t, 8, 8, quota)
				traces[quota] = tr
			}
			var st *trace.Stream
			var err error
			if stream {
				st, err = trace.NewStream(tr, 8, 8, trace.StreamOptions{Window: 4096})
			} else {
				st, err = trace.NewWorkload(tr, 8, 8)
			}
			if err != nil {
				t.Fatal(err)
			}
			if hide {
				return struct {
					sim.Workload
					sim.ActiveSet
				}{st, st}
			}
			return st
		}
	}
	synth := func(rate float64) func(*testing.T, int, bool) sim.Workload {
		return func(t *testing.T, quota int, hide bool) sim.Workload {
			v := traffic.NewSynthetic(8, 8, traffic.Random{}, rate, quota, 17)
			if hide {
				return oneCycle{v}
			}
			return v
		}
	}
	rows := []row{
		{"hoplite/chains", core.Hoplite(8), chains(false), true},
		{"ft/chains", core.FastTrack(8, 2, 1), chains(false), true},
		{"hoplite-2x/chains", core.MultiChannel(8, 2), chains(false), true},
		{"ft/chains-streamed", core.FastTrack(8, 2, 1), chains(true), true},
		{"hoplite/synthetic-1.0", core.Hoplite(8), synth(1.0), true},
		{"ft/synthetic-1.0", core.FastTrack(8, 2, 1), synth(1.0), true},
		{"hoplite-2x/synthetic-1.0", core.MultiChannel(8, 2), synth(1.0), true},
		{"hoplite/synthetic-0.05", core.Hoplite(8), synth(0.05), false},
	}
	run := func(t *testing.T, r row, quota int, hide bool) (sim.Result, int64) {
		net, err := r.cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		wl := r.wl(t, quota, hide)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := sim.Run(net, wl, sim.Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, int64(after.TotalAlloc - before.TotalAlloc)
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			run(t, r, small, false) // warm the runtime
			res, b200 := run(t, r, small, false)
			if r.saturated && res.Counters.InjectionStalls < res.Counters.Delivered {
				t.Fatal("the run never stalled an offer; it is not saturated")
			}
			if hidden, _ := run(t, r, small, true); !reflect.DeepEqual(hidden, res) {
				t.Errorf("change-driven run diverges from the hidden-report run:\nhidden:  %+v\nchanges: %+v", hidden, res)
			}
			res2k, b2000 := run(t, r, large, false)
			t.Logf("%s at quota %d, %s at quota %d; %d stalls per packet", kib(b200), small, kib(b2000), large, res2k.Counters.InjectionStalls/max(res2k.Delivered, 1))
			if slack := max(b200, 0)/4 + 16<<10; b2000 > b200+slack {
				t.Errorf("sim.Run allocated %s at quota %d but %s at quota %d (%d vs %d packets); want within %s",
					kib(b200), small, kib(b2000), large, res.Delivered, res2k.Delivered, kib(slack))
			}
		})
	}
}

func kib(b int64) string { return fmt.Sprintf("%.1f KiB", float64(b)/1024) }
