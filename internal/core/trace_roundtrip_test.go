package core_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/graphgen"
	"fasttrack/internal/matrixgen"
	"fasttrack/internal/runner"
	"fasttrack/internal/trace"
	"fasttrack/internal/workloads/dataflow"
	"fasttrack/internal/workloads/graphwl"
	"fasttrack/internal/workloads/overlay"
	"fasttrack/internal/workloads/spmv"
)

// goldenTraces generates one small trace per workload family — the four
// Fig 15 case studies at test scale on a 4×4 grid.
func goldenTraces(t *testing.T) []*trace.Trace {
	t.Helper()
	const n = 4
	sp, err := spmv.Trace(matrixgen.Circuit("golden", 300, 6, 11), n, n, spmv.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := graphgen.PreferentialAttachment("golden", 400, 5, 12)
	gw, err := graphwl.Trace(g, graphgen.HashPartition(g.N, n*n, 0xfeed), n, n, graphwl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lu, err := dataflow.Trace(matrixgen.Circuit("golden", 200, 4, 13), n, n, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ov, err := overlay.Trace(overlay.Benchmarks()[1], n, n, 8, 14)
	if err != nil {
		t.Fatal(err)
	}
	return []*trace.Trace{sp, gw, lu, ov}
}

// TestGoldenTraceRoundTrip is the PR's acceptance gate: for every workload
// family, text and binary serializations round-trip losslessly, the
// streaming replay of the recorded FTT1 file produces a sim.Result deep-equal
// to the in-memory replay, and the runner cache key computed from the
// recorded file's header equals the one computed from the in-memory trace.
func TestGoldenTraceRoundTrip(t *testing.T) {
	cfg := core.FastTrack(4, 2, 1)
	dir := t.TempDir()
	for _, tr := range goldenTraces(t) {
		t.Run(tr.Name, func(t *testing.T) {
			// Text round trip.
			var txt bytes.Buffer
			if err := trace.WriteText(&txt, tr); err != nil {
				t.Fatal(err)
			}
			fromTxt, err := trace.Read(bytes.NewReader(txt.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if fromTxt.Fingerprint() != tr.Fingerprint() {
				t.Fatal("text round trip changed the fingerprint")
			}

			// Binary round trip (via file, as users would).
			path := filepath.Join(dir, filepath.Base(tr.Name)+".ftt")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.EncodeBinary(f, tr); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			rd, err := trace.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			if rd.Header() != tr.Header() {
				t.Fatalf("recorded header %+v != in-memory %+v", rd.Header(), tr.Header())
			}

			// Cache-key equality: a recorded trace must share result-cache
			// entries with its in-memory twin.
			if got, want := runner.TraceKey(cfg, rd, core.TraceOptions{}), runner.TraceKey(cfg, tr, core.TraceOptions{}); got != want {
				t.Fatalf("cache key mismatch:\n%s\n%s", got, want)
			}

			// Result equality: streaming replay of the file == in-memory
			// replay, bit for bit.
			direct, err := core.RunTrace(context.Background(), cfg, tr, core.TraceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := core.RunTrace(context.Background(), cfg, rd, core.TraceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct, streamed) {
				t.Fatalf("streamed result differs from in-memory:\n%+v\n%+v", direct, streamed)
			}

			// And the text decode replays identically too.
			textual, err := core.RunTrace(context.Background(), cfg, fromTxt, core.TraceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct, textual) {
				t.Fatal("text-decoded replay differs from in-memory")
			}
		})
	}
}

// TestRunTraceSurfacesStreamError: a truncated FTT1 file must fail the
// replay, not return a quietly partial Result.
func TestRunTraceSurfacesStreamError(t *testing.T) {
	tr := goldenTraces(t)[0]
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cut.ftt")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-15], 0o644); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := core.RunTrace(context.Background(), core.FastTrack(4, 2, 1), rd, core.TraceOptions{}); err == nil {
		t.Fatal("truncated trace file should fail the replay")
	}
}
