package telemetry_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/telemetry"
)

// TestTracerGoldenBytes pins the exact bytes the packet tracer writes for one
// seeded 4×4 FastTrack run: any change to the trace-event framing, field
// order or omitted fields fails here. The output is tens of kilobytes, so it
// is pinned by its length, its opening bytes and its SHA-256.
func TestTracerGoldenBytes(t *testing.T) {
	var chrome bytes.Buffer
	tr := telemetry.NewTracer(telemetry.TracerOptions{Chrome: &chrome})
	if _, err := core.RunSynthetic(context.Background(), core.FastTrack(4, 2, 1), core.SyntheticOptions{
		Pattern: "RANDOM", Rate: 0.3, PacketsPerPE: 4, Seed: 7, Observer: tr,
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		got    []byte
		size   int
		prefix string
		sum    string
	}{
		{"chrome", chrome.Bytes(), 36732,
			`{"traceEvents":[{"name":"packet","cat":"pkt","ph":"b","id":"8589934593","pid":1,"tid":0,"ts":0,"args":{"dst":"(3,1)","gen":0,"src":"(1,0)"}},` +
				`{"name":"packet","cat":"pkt","ph":"n","id":"8589934593","pid":1,"tid":1,"ts":0,"args":{"express":true,"port":"E.ex"}},`,
			"812d02678556a9609aeff11fcab3766d4d4cafdf8e21b84dddf25c0c680c730b"},
	} {
		sum := fmt.Sprintf("%x", sha256.Sum256(c.got))
		if len(c.got) != c.size || !bytes.HasPrefix(c.got, []byte(c.prefix)) || sum != c.sum {
			t.Errorf("%s: %d bytes, sha256 %s, want %d bytes, sha256 %s, prefix %q; got prefix %q",
				c.name, len(c.got), sum, c.size, c.sum, c.prefix, c.got[:min(len(c.got), len(c.prefix)+40)])
		}
	}
}

// TestLinkStatsGoldenBytes pins the -link-stats CSV for one seeded 4×4
// FastTrack run at saturation, whose routers deflect both local and express
// inputs and deny express links to in-flight and injected packets: the
// per-router wire-class counts, the deflection and denial columns and the
// utilization formatting must all come out byte for byte.
func TestLinkStatsGoldenBytes(t *testing.T) {
	l := telemetry.NewLinkStats(4, 4)
	if _, err := core.RunSynthetic(context.Background(), core.FastTrack(4, 2, 1), core.SyntheticOptions{
		Pattern: "RANDOM", Rate: 1.0, PacketsPerPE: 8, Seed: 7, Observer: l,
	}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := l.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "links.golden.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("link-stats CSV differs from testdata/links.golden.csv:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
