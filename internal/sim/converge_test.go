package sim

import (
	"context"
	"math"
	"testing"

	"fasttrack/internal/hoplite"
	"fasttrack/internal/traffic"
)

func runSaturated(t *testing.T, opts Options) Result {
	t.Helper()
	net, err := hoplite.New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(8, 8, traffic.Random{}, 1.0, 400, 7)
	res, err := Run(net, wl, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestConvergenceEarlyExit: a saturated run reaches throughput steady state
// long before the quota drains, so the windowed stationarity test must stop
// it early while preserving the measured sustained rate within a few
// percent of the full-budget run.
func TestConvergenceEarlyExit(t *testing.T) {
	full := runSaturated(t, Options{})
	early := runSaturated(t, Options{ConvergeWindow: 128, ConvergeTol: 0.02})
	if !early.Converged {
		t.Fatalf("expected early exit, ran %d cycles (full: %d)", early.Cycles, full.Cycles)
	}
	if early.Cycles >= full.Cycles {
		t.Fatalf("converged run not shorter: %d vs %d cycles", early.Cycles, full.Cycles)
	}
	if full.SustainedRate == 0 {
		t.Fatal("full run delivered nothing")
	}
	if rel := math.Abs(early.SustainedRate-full.SustainedRate) / full.SustainedRate; rel > 0.10 {
		t.Fatalf("converged sustained rate drifted %.1f%%: %.4f vs %.4f",
			100*rel, early.SustainedRate, full.SustainedRate)
	}
}

// TestConvergenceDisabledMatchesDefault: the fixed-budget path is untouched
// when the window is 0 (the golden tests rely on this).
func TestConvergenceDisabledMatchesDefault(t *testing.T) {
	a := runSaturated(t, Options{})
	b := runSaturated(t, Options{ConvergeWindow: 0})
	if a.Cycles != b.Cycles || a.Delivered != b.Delivered || a.Converged || b.Converged {
		t.Fatalf("zero window changed behaviour: %+v vs %+v", a.Cycles, b.Cycles)
	}
}

// TestConvergenceNoExitOnShortRun: a tiny workload drains before the
// patience budget, so the run must end naturally, not via convergence.
func TestConvergenceNoExitOnShortRun(t *testing.T) {
	net, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(4, 4, traffic.Random{}, 0.3, 5, 3)
	res, err := Run(net, wl, Options{ConvergeWindow: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("drained workload must not be reported as converged")
	}
	if res.Delivered != res.Injected {
		t.Fatalf("short run should drain: injected %d delivered %d", res.Injected, res.Delivered)
	}
}

// TestContextCancellation: a cancelled context aborts the run promptly with
// the context's error.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net, err := hoplite.New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(8, 8, traffic.Random{}, 1.0, 100000, 11)
	_, err = Run(net, wl, Options{Context: ctx})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestConvergedNotTimedOut is the regression test for the result-flag bug:
// a run that exits through the convergence test consumed its final cycle in
// full, and the post-loop now >= MaxCycles comparison used to mislabel it
// as timed out whenever convergence landed on the budget boundary. Converged
// must imply !TimedOut.
func TestConvergedNotTimedOut(t *testing.T) {
	build := func() (Result, error) {
		net, err := hoplite.New(8, 8)
		if err != nil {
			t.Fatal(err)
		}
		wl := traffic.NewSynthetic(8, 8, traffic.Random{}, 1.0, 100000, 17)
		return Run(net, wl, Options{ConvergeWindow: 64, MaxCycles: 1 << 20})
	}
	first, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Converged {
		t.Fatal("saturated run with ConvergeWindow never converged; cannot stage the regression")
	}

	// Re-run with MaxCycles set exactly to the convergence cycle. The
	// window length divides MaxCycles, so the stationarity test fires on
	// the run's very last budgeted cycle — the boundary the old
	// "now >= MaxCycles ⇒ TimedOut" logic mislabeled.
	net, err := hoplite.New(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	wl := traffic.NewSynthetic(8, 8, traffic.Random{}, 1.0, 100000, 17)
	res, err := Run(net, wl, Options{ConvergeWindow: 64, MaxCycles: first.Cycles})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("run did not converge at cycle %d on replay", first.Cycles)
	}
	if res.TimedOut {
		t.Errorf("Converged run labeled TimedOut (cycles=%d, max=%d): the flags must be mutually exclusive", res.Cycles, first.Cycles)
	}
}
