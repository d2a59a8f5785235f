package monitor_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/monitor"
)

// runOpts is the deterministic workload the collector tests observe.
func runOpts() core.SyntheticOptions {
	return core.SyntheticOptions{Pattern: "RANDOM", Rate: 1.0, PacketsPerPE: 200, Seed: 17}
}

// TestCollectorMatchesCounters runs a saturated FastTrack sim with the
// Collector attached and requires every snapshot total to equal the
// network's own counters — the /metrics scrape is only trustworthy if the
// event stream is complete.
func TestCollectorMatchesCounters(t *testing.T) {
	cfg := core.FastTrack(8, 2, 1)
	col := monitor.NewCollector(8, 8)
	opts := runOpts()
	opts.Observer = col

	res, err := core.RunSynthetic(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()

	c := res.Counters
	if snap.Cycles != res.Cycles {
		t.Errorf("cycles = %d, want %d", snap.Cycles, res.Cycles)
	}
	if snap.Injected != res.Injected {
		t.Errorf("injected = %d, want %d", snap.Injected, res.Injected)
	}
	if snap.Delivered != res.Delivered {
		t.Errorf("delivered = %d, want %d", snap.Delivered, res.Delivered)
	}
	if snap.Stalls != c.InjectionStalls {
		t.Errorf("stalls = %d, want %d", snap.Stalls, c.InjectionStalls)
	}
	if snap.HopsLocal != c.ShortTraversals {
		t.Errorf("local hops = %d, want %d", snap.HopsLocal, c.ShortTraversals)
	}
	if snap.HopsExpress != c.ExpressTraversals {
		t.Errorf("express hops = %d, want %d", snap.HopsExpress, c.ExpressTraversals)
	}
	var misroutes, denied int64
	for p := range c.MisroutesByInput {
		misroutes += c.MisroutesByInput[p]
		denied += c.ExpressDeniedByInput[p]
	}
	if got := snap.DeflectLocal + snap.DeflectExpress; got != misroutes {
		t.Errorf("deflections = %d (%d local + %d express), want %d",
			got, snap.DeflectLocal, snap.DeflectExpress, misroutes)
	}
	if snap.Denied != denied {
		t.Errorf("express denied = %d, want %d", snap.Denied, denied)
	}
	if snap.P50 != res.P50 || snap.P99 != res.P99 {
		t.Errorf("quantiles p50/p99 = %d/%d, want %d/%d", snap.P50, snap.P99, res.P50, res.P99)
	}
	if snap.InFlight != 0 {
		t.Errorf("in flight = %d after drain, want 0", snap.InFlight)
	}
	if snap.MeanLatency() <= 0 {
		t.Errorf("mean latency = %v, want > 0", snap.MeanLatency())
	}
}

// TestSnapshotDoesNotPerturbConvergence runs the same converging workload
// with and without a Collector being snapshotted concurrently mid-run, and
// requires bit-identical results — in particular the same convergence
// decision. A read-only monitor must never change what the engine computes.
func TestSnapshotDoesNotPerturbConvergence(t *testing.T) {
	cfg := core.Hoplite(8)
	opts := core.SyntheticOptions{
		Pattern: "RANDOM", Rate: 1.0, PacketsPerPE: 400, Seed: 7,
		ConvergeWindow: 128, ConvergeTol: 0.02,
	}

	base, err := core.RunSynthetic(context.Background(), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Converged {
		t.Fatalf("baseline did not converge; pick a workload that exercises the detector")
	}

	col := monitor.NewCollector(8, 8)
	watched := opts
	watched.Observer = col

	// Hammer Snapshot from another goroutine for the whole run, the way the
	// HTTP handlers do.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				col.Snapshot()
			}
		}
	}()
	res, err := core.RunSynthetic(context.Background(), cfg, watched)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if res.Converged != base.Converged || res.Cycles != base.Cycles {
		t.Errorf("snapshotted run diverged: converged %v @ %d cycles, baseline %v @ %d",
			res.Converged, res.Cycles, base.Converged, base.Cycles)
	}
	if !reflect.DeepEqual(res, base) {
		t.Error("snapshotted run is not bit-identical to the baseline")
	}
	// The collector still saw the whole (early-exited) run.
	if snap := col.Snapshot(); snap.Delivered != res.Delivered {
		t.Errorf("collector delivered = %d, run delivered %d", snap.Delivered, res.Delivered)
	}
}

// TestCollectorSumsConcurrentRuns: two runs sharing one Collector, the way a
// sweep job's rates do, end with the sum of their cycles and deliveries, and
// the cycle count a concurrent reader sees never goes backwards.
func TestCollectorSumsConcurrentRuns(t *testing.T) {
	col := monitor.NewCollector(8, 8)
	var res [2]core.Result
	var errs [2]error
	var runs sync.WaitGroup
	for i, rate := range []float64{0.2, 0.6} {
		runs.Add(1)
		go func() {
			defer runs.Done()
			opts := core.SyntheticOptions{Pattern: "RANDOM", Rate: rate, PacketsPerPE: 100, Seed: 3, Observer: col}
			res[i], errs[i] = core.RunSynthetic(context.Background(), core.FastTrack(8, 2, 1), opts)
		}()
	}
	stop := make(chan struct{})
	backwards := make(chan [2]int64, 1)
	go func() {
		defer close(backwards)
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := col.Snapshot().Cycles
			if c < last {
				backwards <- [2]int64{last, c}
				return
			}
			last = c
		}
	}()
	runs.Wait()
	close(stop)
	if b, ok := <-backwards; ok {
		t.Errorf("cycle counter went backwards: %d then %d", b[0], b[1])
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	snap := col.Snapshot()
	if want := res[0].Cycles + res[1].Cycles; snap.Cycles != want {
		t.Errorf("cycles = %d, want %d + %d = %d", snap.Cycles, res[0].Cycles, res[1].Cycles, want)
	}
	if want := res[0].Delivered + res[1].Delivered; snap.Delivered != want {
		t.Errorf("delivered = %d, want %d", snap.Delivered, want)
	}
}
