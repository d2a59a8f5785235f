package runner

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"fasttrack/internal/obs"
)

// TestSpanTracePropagation: sweep spans inherit the trace/job IDs of the
// batch context's JobTrace and the Chrome export carries them in every
// slice's args.
func TestSpanTracePropagation(t *testing.T) {
	log := NewSpanLog()
	o := &Orchestrator{Workers: 2, Spans: log}
	tr := obs.NewJobTrace("sweep-trace-7")
	tr.SetJobID("j000007")
	ctx := obs.WithTrace(context.Background(), tr)
	err := o.ForEach(ctx, 4, func(ctx context.Context, i int) error {
		_, _, err := Do(ctx, o, "", func() (int, error) { return i, nil })
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := log.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans", len(spans))
	}
	for _, sp := range spans {
		if sp.TraceID != "sweep-trace-7" || sp.JobID != "j000007" {
			t.Fatalf("span %d missing correlation IDs: %+v", sp.Index, sp)
		}
	}
	var buf bytes.Buffer
	if err := log.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"trace_id":"sweep-trace-7"`); n != 4 {
		t.Fatalf("chrome export has %d trace_id args, want 4", n)
	}
}

// TestDoHistograms: the per-job histograms split by satisfaction path —
// fresh runs land in HistSimulated, cache hits in HistCacheHit, each
// count matching the corresponding Stats counter.
func TestDoHistograms(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := &Orchestrator{Cache: cache}
	for round := 0; round < 2; round++ {
		for i := 0; i < 3; i++ {
			key := "hist-job-" + string(rune('a'+i))
			if _, _, err := Do(context.Background(), o, key, func() (int, error) {
				return i, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := o.Snapshot()
	if s.Executed != 3 || s.CacheHits != 3 {
		t.Fatalf("executed=%d hits=%d, want 3/3", s.Executed, s.CacheHits)
	}
	if s.HistSimulated.Count != s.Executed {
		t.Fatalf("simulated hist count %d != executed %d", s.HistSimulated.Count, s.Executed)
	}
	if s.HistCacheHit.Count != s.CacheHits {
		t.Fatalf("cache-hit hist count %d != hits %d", s.HistCacheHit.Count, s.CacheHits)
	}
}
