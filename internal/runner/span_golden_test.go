package runner

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// goldenSpanLog is a three-worker log with spans at fixed offsets from the
// log's start, recorded out of worker order: a cache hit with a key, a
// failed job carrying request IDs, and a sub-microsecond job that the export
// clamps to 1 µs.
func goldenSpanLog() *SpanLog {
	l := NewSpanLog()
	at := func(us int64) time.Time { return l.start.Add(time.Duration(us) * time.Microsecond) }
	span := func(index, worker int, start, end time.Time) Span {
		s := Span{Index: index, Worker: worker, Queued: l.start}
		s.Start, s.End = start, end
		return s
	}
	s := span(2, 2, at(10), at(1010))
	s.Key = "k2"
	l.add(s)
	s = span(0, 0, at(3), at(3).Add(400*time.Nanosecond))
	s.CacheHit, s.Key = true, "k0"
	l.add(s)
	s = span(1, 1, at(7), at(2507))
	s.TraceID, s.JobID, s.Err = "trace-gold", "j000004", "boom"
	l.add(s)
	return l
}

// TestWriteChromeGolden pins the exact bytes of a sweep span export: worker
// lanes in ascending order, then one slice per span in completion order.
func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenSpanLog().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{"traceEvents":[` +
		`{"name":"thread_name","ph":"M","pid":2,"tid":0,"ts":0,"args":{"name":"worker 0"}},` +
		`{"name":"thread_name","ph":"M","pid":2,"tid":1,"ts":0,"args":{"name":"worker 1"}},` +
		`{"name":"thread_name","ph":"M","pid":2,"tid":2,"ts":0,"args":{"name":"worker 2"}},` +
		`{"name":"job 2","cat":"sweep","ph":"X","pid":2,"tid":2,"ts":10,"dur":1000,"args":{"cache_hit":false,"index":2,"key":"k2","queued_us":10}},` +
		`{"name":"job 0 (cached)","cat":"sweep","ph":"X","pid":2,"tid":0,"ts":3,"dur":1,"args":{"cache_hit":true,"index":0,"key":"k0","queued_us":3}},` +
		`{"name":"job 1","cat":"sweep","ph":"X","pid":2,"tid":1,"ts":7,"dur":2500,"args":{"cache_hit":false,"error":"boom","index":1,"job_id":"j000004","queued_us":7,"trace_id":"trace-gold"}}` +
		"]}\n"
	if got := buf.String(); got != want {
		t.Fatalf("export drifted:\n got %s\nwant %s", got, want)
	}
}

// TestWriteChromeDeterministic: exporting one multi-worker log twice yields
// identical bytes (the worker lanes must not follow map iteration order).
func TestWriteChromeDeterministic(t *testing.T) {
	l := goldenSpanLog()
	var first strings.Builder
	if err := l.WriteChrome(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var again strings.Builder
		if err := l.WriteChrome(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("export %d differs from the first:\n%s\n%s", i+2, again.String(), first.String())
		}
	}
}
