package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestSpanLogRecordsJobs runs a batch through ForEach with a span log
// attached and checks every job produced exactly one span with sane
// timestamps, worker ids inside the pool, and cache-hit marks from Do.
func TestSpanLogRecordsJobs(t *testing.T) {
	dir := t.TempDir()
	cache, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := &Orchestrator{Workers: 3, Cache: cache, Spans: NewSpanLog()}

	// Jobs i and i+4 share a key. ForEach hands out indices in order, so the
	// first occurrence is always claimed first, but it may still be writing
	// its entry when a faster worker reaches the second; the second waits for
	// it so the hit count is exact.
	const n = 8
	var first [4]chan struct{}
	for k := range first {
		first[k] = make(chan struct{})
	}
	job := func(ctx context.Context, i int) error {
		if i >= 4 {
			<-first[i-4]
		} else {
			defer close(first[i])
		}
		_, err := Do(ctx, o, fmt.Sprintf("span-test-%d", i%4), func() (int, error) {
			return i, nil
		})
		return err
	}
	if err := o.ForEach(context.Background(), n, job); err != nil {
		t.Fatal(err)
	}

	spans := o.Spans.Spans()
	if len(spans) != n {
		t.Fatalf("recorded %d spans, want %d", len(spans), n)
	}
	seen := map[int]bool{}
	hits := 0
	for _, s := range spans {
		if seen[s.Index] {
			t.Errorf("job %d recorded twice", s.Index)
		}
		seen[s.Index] = true
		if s.Worker < 0 || s.Worker >= 3 {
			t.Errorf("job %d ran on worker %d, pool size 3", s.Index, s.Worker)
		}
		if s.Start.Before(s.Queued) || s.End.Before(s.Start) {
			t.Errorf("job %d has inverted timeline: queued %v start %v end %v",
				s.Index, s.Queued, s.Start, s.End)
		}
		if s.Key == "" {
			t.Errorf("job %d span has no cache key", s.Index)
		}
		if s.CacheHit {
			hits++
		}
		if s.Err != "" {
			t.Errorf("job %d recorded error %q", s.Index, s.Err)
		}
	}
	// 4 distinct keys over 8 jobs: the second occurrence of each key is a
	// hit (completion order varies, but the total is exact).
	if hits != 4 {
		t.Errorf("cache-hit spans = %d, want 4", hits)
	}
	_, cacheHits := o.Stats()
	if int64(hits) != cacheHits {
		t.Errorf("span hits = %d, orchestrator counted %d", hits, cacheHits)
	}
}

// TestSpanLogRecordsErrors checks failed jobs carry their error message and
// the orchestrator's failure counter agrees.
func TestSpanLogRecordsErrors(t *testing.T) {
	o := &Orchestrator{Workers: 1, Spans: NewSpanLog()}
	boom := errors.New("boom")
	err := o.ForEach(context.Background(), 1, func(ctx context.Context, i int) error {
		return boom
	})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("ForEach error = %v, want *JobError", err)
	}
	spans := o.Spans.Spans()
	if len(spans) != 1 || spans[0].Err != "boom" {
		t.Fatalf("spans = %+v, want one span with Err \"boom\"", spans)
	}
	if snap := o.Snapshot(); snap.Failed != 1 {
		t.Errorf("Snapshot.Failed = %d, want 1", snap.Failed)
	}
}

// TestWriteChrome validates the trace-event export: one JSON object with a
// traceEvents array holding per-worker thread_name metadata plus one "X"
// complete event per span, microsecond timestamps, pid 2.
func TestWriteChrome(t *testing.T) {
	o := &Orchestrator{Workers: 2, Spans: NewSpanLog()}
	if err := o.ForEach(context.Background(), 5, func(ctx context.Context, i int) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := o.Spans.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			TS   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("export is not valid trace-event JSON: %v\n%s", err, sb.String())
	}

	var meta, complete int
	for _, ev := range doc.TraceEvents {
		if ev.PID != 2 {
			t.Errorf("event %q on pid %d, want 2", ev.Name, ev.PID)
		}
		switch ev.Ph {
		case "M":
			meta++
			if !strings.HasPrefix(ev.Name, "thread_name") {
				t.Errorf("metadata event named %q", ev.Name)
			}
		case "X":
			complete++
			if !strings.HasPrefix(ev.Name, "job ") {
				t.Errorf("complete event named %q", ev.Name)
			}
			if ev.Dur < 1 {
				t.Errorf("event %q has dur %d, want >= 1", ev.Name, ev.Dur)
			}
			if ev.TS < 0 {
				t.Errorf("event %q has negative ts %d", ev.Name, ev.TS)
			}
			if _, ok := ev.Args["index"]; !ok {
				t.Errorf("event %q missing index arg", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if complete != 5 {
		t.Errorf("complete events = %d, want 5", complete)
	}
	if meta < 1 || meta > 2 {
		t.Errorf("thread_name events = %d, want 1..2 (one per worker used)", meta)
	}
}
