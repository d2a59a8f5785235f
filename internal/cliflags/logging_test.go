package cliflags

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fasttrack/internal/obs"
)

// TestLoggingFlags: the flag group round-trips into a working slog.Logger
// honoring format and level, and rejects unknown values.
func TestLoggingFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	l := RegisterLogging(fs, "warn")
	if err := fs.Parse([]string{"-log-format", "json", "-log-level", "debug"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	logger, err := l.Logger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	logger.Debug("hello", "k", "v")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "hello" || rec["k"] != "v" {
		t.Fatalf("record %v", rec)
	}

	bad := &Logging{Format: "yaml", Level: "info"}
	if _, err := bad.Logger(&buf); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestDumpFlightRouting: forensics flow through the structured logger with
// the context's trace/job IDs attached; with -flight-out the raw report
// lands in the file and the record carries its path instead of the body.
func TestDumpFlightRouting(t *testing.T) {
	out := filepath.Join(t.TempDir(), "flight.txt")
	m := &Monitor{FlightRecorder: 4, FlightOut: out}
	ops, err := BuildOps(nil, m, 4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ops.Log, err = obs.NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewJobTrace("trace-x")
	tr.SetJobID("j42")
	ctx := obs.WithTrace(context.Background(), tr)
	ops.DumpFlight(ctx, 3)

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, buf.String())
	}
	if rec["trace_id"] != "trace-x" || rec["job_id"] != "j42" {
		t.Fatalf("missing correlation IDs: %v", rec)
	}
	if rec["path"] != out {
		t.Fatalf("record lacks report path: %v", rec)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("report file not written: %v", err)
	}

	// Without -flight-out the report body rides inline in the record.
	ops.flightOut = ""
	buf.Reset()
	ops.DumpFlight(ctx, 3)
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	body, _ := rec["report"].(string)
	if !strings.Contains(body, "flight recorder") && body == "" {
		t.Fatalf("inline report missing: %v", rec)
	}
}
