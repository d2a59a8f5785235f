package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, when set to 1, makes the test binary run ftsim's main instead
// of the tests, so a test can drive the real CLI (flags, exit status, files)
// by re-executing itself.
const runMainEnv = "FTSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFailedRunKeepsTelemetry: a run the watchdog kills still exits 1, but
// its telemetry is closed first, so the Chrome trace is a complete document
// and both CSV reports are written — a failed run is exactly the run the
// telemetry flags are for.
func TestFailedRunKeepsTelemetry(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "t.json")
	metricsOut := filepath.Join(dir, "m.csv")
	linkOut := filepath.Join(dir, "l.csv")
	cmd := exec.Command(os.Args[0], "-n", "4", "-rate", "1", "-watchdog", "2",
		"-trace-out", traceOut, "-metrics-out", metricsOut, "-link-stats", linkOut)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("want exit status 1 from a watchdog trip, got %v\n%s", err, out)
	}

	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-trace-out of a failed run is not trace-event JSON (%d bytes): %v", len(raw), err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("-trace-out of a failed run has no events")
	}
	for path, header := range map[string]string{
		metricsOut: "window,start_cycle,end_cycle,",
		linkOut:    "x,y,dir,class,hops,",
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), header) {
			t.Fatalf("%s: want header %q..., got %q", filepath.Base(path), header, string(b[:min(len(b), 80)]))
		}
	}
}
