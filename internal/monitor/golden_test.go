package monitor_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/monitor"
	"fasttrack/internal/sim"
)

// goldenRun observes one seeded 4×4 FastTrack run at saturation, whose
// routers deflect both local and express inputs and deny express links to
// in-flight and injected packets, with a flight recorder attached and its
// totals published into a Progress, wall clock cleared.
func goldenRun(t *testing.T) (*monitor.FlightRecorder, *sim.Progress) {
	t.Helper()
	fr := monitor.NewFlightRecorder(16, 4)
	p := new(sim.Progress)
	if _, err := core.RunSynthetic(context.Background(), core.FastTrack(4, 2, 1), core.SyntheticOptions{
		Pattern: "RANDOM", Rate: 1.0, PacketsPerPE: 8, Seed: 7, Observer: fr, Progress: p,
	}); err != nil {
		t.Fatal(err)
	}
	p.Start.Store(0)
	return fr, p
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/%s:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestFlightReportGoldenBytes pins the /debug/flight text of the golden run:
// the worst packets' hop histories with their event kinds and ports, and the
// deflection-blame table.
func TestFlightReportGoldenBytes(t *testing.T) {
	fr, _ := goldenRun(t)
	var got bytes.Buffer
	if err := fr.WriteReport(&got, 10); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "flight.golden.txt", got.Bytes())
}

// TestMetricsSimGolden pins the sim section of /metrics written from the
// golden run's Progress: every family, label and value, and the zero speed
// gauge of a Progress without a start time.
func TestMetricsSimGolden(t *testing.T) {
	_, p := goldenRun(t)
	srv, err := monitor.StartServer("127.0.0.1:0", monitor.ServerOptions{Progress: p})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	checkGolden(t, "metrics_sim.golden.txt", []byte(scrape(t, srv, "/metrics")))
}
