package sim_test

import (
	"reflect"
	"testing"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/faults"
	"fasttrack/internal/noc"
	"fasttrack/internal/reliability"
	"fasttrack/internal/sim"
	"fasttrack/internal/trace"
	"fasttrack/internal/traffic"
)

// progressRun is one run of the Progress suite: a fresh network and
// workload per call, so the run can be repeated with and without Progress.
// With faults set, the network is wrapped in the fault injector and the
// workload in the retry layer.
type progressRun struct {
	name   string
	cfg    core.Config
	wl     func(t *testing.T) sim.Workload
	faults *faults.Config
}

func progressRuns(t *testing.T) []progressRun {
	tr := digestTrace(t)
	synth := func(rate float64, quota int) func(*testing.T) sim.Workload {
		return func(*testing.T) sim.Workload {
			return traffic.NewSynthetic(8, 8, traffic.Random{}, rate, quota, 5)
		}
	}
	replay := func(t *testing.T) sim.Workload {
		wl, err := trace.NewWorkload(tr, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	var runs []progressRun
	for _, cfg := range []core.Config{core.Hoplite(8), core.FastTrack(8, 2, 1)} {
		runs = append(runs,
			// 0.05 arms the idle skip and lasts past several 4096-cycle
			// publishes; 1.0 saturates for about as long.
			progressRun{cfg.String() + "/RANDOM-0.05", cfg, synth(0.05, 300), nil},
			progressRun{cfg.String() + "/RANDOM-1.0", cfg, synth(1.0, 1000), nil},
			progressRun{cfg.String() + "/trace", cfg, replay, nil},
		)
	}
	// Drops, misdeliveries, retransmits and abandoned packets all happen.
	return append(runs, progressRun{"FT(64,2,1)/RANDOM-0.3/faults+retry", core.FastTrack(8, 2, 1), synth(0.3, 200),
		&faults.Config{Seed: 3, DropRate: 0.05, MisrouteRate: 0.02}})
}

func (r progressRun) run(t *testing.T, p *sim.Progress) sim.Result {
	t.Helper()
	net, err := r.cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	wl := r.wl(t)
	if r.faults != nil {
		if net, err = faults.Wrap(net, *r.faults); err != nil {
			t.Fatal(err)
		}
		wl = reliability.Wrap(wl, net.Width(), reliability.Config{Timeout: 64, MaxRetries: 1})
	}
	res, err := sim.Run(net, wl, sim.Options{Progress: p})
	if err != nil {
		t.Fatal(err)
	}
	if r.faults != nil && (res.Faults.Dropped == 0 || res.Faults.Misdelivered == 0 ||
		res.Recovery.Retries == 0 || res.Recovery.Abandoned == 0) {
		t.Fatalf("faulty run lost nothing it could publish: faults %+v, recovery %+v", res.Faults, res.Recovery)
	}
	return res
}

// progressTotals reads p's totals in Result's terms: the summable counters
// first, then P50 and P99.
func progressTotals(p *sim.Progress) [15]int64 {
	return [15]int64{p.Cycles.Load(), p.Injected.Load(), p.Delivered.Load(),
		p.InFlight.Load(), p.LatSum.Load(),
		p.HopsLocal.Load(), p.HopsExpress.Load(), p.DeflectLocal.Load(), p.DeflectExpress.Load(),
		p.Denied.Load(), p.Stalls.Load(), p.Drops.Load(), p.Retransmits.Load(),
		p.P50.Load(), p.P99.Load()}
}

func resultTotals(res sim.Result) [15]int64 {
	c := res.Counters
	// On the unidirectional torus the express inputs are WEx and NEx.
	deflectExpress := c.MisroutesByInput[noc.PortWEx] + c.MisroutesByInput[noc.PortNEx]
	return [15]int64{res.Cycles, res.Injected, res.Delivered, 0,
		int64(res.AvgLatency*float64(res.Delivered) + 0.5),
		c.ShortTraversals, c.ExpressTraversals, c.TotalDeflections() - deflectExpress, deflectExpress,
		c.TotalExpressDenied(), c.InjectionStalls,
		res.Faults.Lost() + res.Recovery.Abandoned, res.Recovery.Retries,
		res.P50, res.P99}
}

// TestProgressExactAndNeutral: attaching a Progress moves no Result bit, the
// Progress ends holding the Result's totals, and two runs sharing one
// Progress leave the sums of their counters and the later run's quantiles.
// About 0.3 s of tier 1 (0.7 s under -race).
func TestProgressExactAndNeutral(t *testing.T) {
	for _, r := range progressRuns(t) {
		t.Run(r.name, func(t *testing.T) {
			bare := r.run(t, nil)
			var p sim.Progress
			before := time.Now().UnixNano()
			got := r.run(t, &p)
			if !reflect.DeepEqual(got, bare) {
				t.Fatalf("Result with Progress differs:\n got %+v\nwant %+v", got, bare)
			}
			if pt, rt := progressTotals(&p), resultTotals(got); pt != rt {
				t.Fatalf("Progress [cycles injected delivered in-flight latsum hops(local express) "+
					"deflections(local express) denied stalls drops retransmits p50 p99] = %v, Result %v", pt, rt)
			}
			if s := p.Start.Load(); s < before || s > time.Now().UnixNano() {
				t.Fatalf("Start %d outside the run's wall clock", s)
			}

			second := r.run(t, &p)
			want, add := resultTotals(got), resultTotals(second)
			for i := range len(want) - 2 {
				want[i] += add[i]
			}
			want[13], want[14] = second.P50, second.P99
			if pt := progressTotals(&p); pt != want {
				t.Fatalf("shared Progress after two runs = %v, want %v", pt, want)
			}
		})
	}
}

// peekingWorkload reads its run's Progress from Tick, on the engine's own
// goroutine, so what it sees at a given cycle is deterministic.
type peekingWorkload struct {
	*traffic.SynthView
	p    *sim.Progress
	seen map[int64]int64
}

func (w *peekingWorkload) Tick(now int64) {
	if _, ok := w.seen[now]; ok {
		w.seen[now] = w.p.Cycles.Load()
	}
	w.SynthView.Tick(now)
}

// TestProgressPublishesMidRun pins the cadence: a saturated run (no idle
// skip, so executed cycles track the clock) publishes before cycle 0 and
// again before cycle 4096, and not in between.
func TestProgressPublishesMidRun(t *testing.T) {
	net, err := core.Hoplite(8).Build()
	if err != nil {
		t.Fatal(err)
	}
	var p sim.Progress
	wl := &peekingWorkload{traffic.NewSynthetic(8, 8, traffic.Random{}, 1.0, 1000, 5), &p,
		map[int64]int64{0: -1, 4095: -1, 4096: -1, 8191: -1}}
	if _, err := sim.Run(net, wl, sim.Options{Progress: &p}); err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{0: 0, 4095: 0, 4096: 4096, 8191: 4096}
	if !reflect.DeepEqual(wl.seen, want) {
		t.Fatalf("Progress.Cycles seen at Tick(now) = %v, want %v", wl.seen, want)
	}
}
