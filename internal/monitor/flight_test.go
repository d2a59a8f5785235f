package monitor_test

import (
	"context"
	"strings"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/monitor"
	"fasttrack/internal/telemetry"
)

// TestFlightRecorderForensics runs a saturated FastTrack sim with a small
// recorder and checks the forensic report: bounded retention, worst-first
// ordering, hop histories, and a deflection-blame table.
func TestFlightRecorderForensics(t *testing.T) {
	const cap = 8
	fr := monitor.NewFlightRecorder(cap, 8)
	opts := runOpts()
	opts.Observer = fr

	res, err := core.RunSynthetic(context.Background(), core.FastTrack(8, 2, 1), opts)
	if err != nil {
		t.Fatal(err)
	}

	rep := fr.Report(5)
	if rep.Finished != res.Delivered {
		t.Errorf("finished = %d, delivered = %d", rep.Finished, res.Delivered)
	}
	if rep.Live != 0 {
		t.Errorf("live = %d after drain, want 0", rep.Live)
	}
	if rep.Evicted != rep.Finished-cap {
		t.Errorf("evicted = %d, want finished-cap = %d", rep.Evicted, rep.Finished-cap)
	}
	if len(rep.Worst) != 5 {
		t.Fatalf("worst count = %d, want 5", len(rep.Worst))
	}
	if rep.Worst[0].Latency != res.WorstLatency {
		t.Errorf("worst retained latency = %d, run worst = %d", rep.Worst[0].Latency, res.WorstLatency)
	}
	for i := 1; i < len(rep.Worst); i++ {
		if rep.Worst[i].Latency > rep.Worst[i-1].Latency {
			t.Errorf("worst not sorted: #%d latency %d > #%d latency %d",
				i, rep.Worst[i].Latency, i-1, rep.Worst[i-1].Latency)
		}
	}
	for _, r := range rep.Worst {
		if len(r.Hops) == 0 {
			t.Errorf("packet %d retained with no hop history", r.ID)
		}
		if r.Deliver < 0 || r.Dropped {
			t.Errorf("packet %d not delivered in a drained run: deliver=%d dropped=%v", r.ID, r.Deliver, r.Dropped)
		}
		if r.Inject < r.Gen {
			t.Errorf("packet %d injected at %d before generation at %d", r.ID, r.Inject, r.Gen)
		}
		// The recorded hop history of a worst packet must account for its
		// deflection counters unless truncated.
		var defl int32
		for _, h := range r.Hops {
			if h.Kind == telemetry.HopDeflect {
				defl++
			}
		}
		if r.TruncatedHops == 0 && defl != r.Deflections {
			t.Errorf("packet %d: %d DEFLECT hops recorded, counter says %d", r.ID, defl, r.Deflections)
		}
	}
	// A saturated deflection NoC's worst packets were delayed by someone.
	if len(rep.Blame) == 0 {
		t.Error("no deflection blame at saturation")
	}

	var sb strings.Builder
	if err := fr.WriteReport(&sb, 5); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"flight recorder @ cycle", "#1 packet", "deflection blame"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestFlightRecorderLivePackets interrupts a run mid-flight (tiny cycle
// budget) and checks that unfinished packets appear as IN FLIGHT, ranked by
// age.
func TestFlightRecorderLivePackets(t *testing.T) {
	fr := monitor.NewFlightRecorder(4, 8)
	opts := runOpts()
	opts.Observer = fr
	opts.MaxCycles = 20 // stop long before the quota drains

	if _, err := core.RunSynthetic(context.Background(), core.FastTrack(8, 2, 1), opts); err != nil {
		t.Fatal(err)
	}
	rep := fr.Report(10)
	if rep.Live == 0 {
		t.Fatal("no live packets after a truncated run")
	}
	var sawLive bool
	for _, r := range rep.Worst {
		if r.Deliver < 0 {
			sawLive = true
			if r.Latency != rep.Cycle-r.Gen {
				t.Errorf("live packet %d age = %d, want cycle %d - gen %d", r.ID, r.Latency, rep.Cycle, r.Gen)
			}
		}
	}
	if !sawLive {
		t.Error("report ranked no live packet despite in-flight population")
	}
	var sb strings.Builder
	if err := rep.Write(&sb, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "IN FLIGHT") {
		t.Error("report does not mark live packets IN FLIGHT")
	}
}
