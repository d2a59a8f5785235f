package monitor_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/monitor"
	"fasttrack/internal/telemetry"
)

// goldenRun observes one seeded 4×4 FastTrack run at saturation, whose
// routers deflect both local and express inputs and deny express links to
// in-flight and injected packets, with a flight recorder and a collector
// attached side by side.
func goldenRun(t *testing.T) (*monitor.FlightRecorder, *monitor.Collector) {
	t.Helper()
	fr := monitor.NewFlightRecorder(16, 4)
	col := monitor.NewCollector(4, 4)
	if _, err := core.RunSynthetic(context.Background(), core.FastTrack(4, 2, 1), core.SyntheticOptions{
		Pattern: "RANDOM", Rate: 1.0, PacketsPerPE: 8, Seed: 7, Observer: telemetry.Multi(fr, col),
	}); err != nil {
		t.Fatal(err)
	}
	return fr, col
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

// TestCollectorSnapshotGolden pins the final Collector snapshot of the golden
// run as JSON, wall clock zeroed: totals and the latency quantiles.
func TestCollectorSnapshotGolden(t *testing.T) {
	_, col := goldenRun(t)
	s := col.Snapshot()
	s.WallMS = 0
	got, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.golden.json", append(got, '\n'))
}
