package obs

import (
	"bytes"
	"testing"
	"time"
)

// TestWriteChromeGolden pins the exact bytes of a job trace's Chrome export
// for spans at fixed offsets from the trace's start: the process and lane
// metadata, a sub-microsecond slice clamped to 1 µs, attrs merged over the
// lane args, an instant event, and the SSE lane.
func TestWriteChromeGolden(t *testing.T) {
	tr := NewJobTrace("trace-gold")
	tr.SetJobID("j000009")
	at := func(us int64) time.Time { return tr.Start().Add(time.Duration(us) * time.Microsecond) }
	tr.Add(Span{Name: "admission", Start: at(0), End: at(0).Add(300 * time.Nanosecond)})
	tr.Add(Span{Name: "queue_wait", Start: at(5), End: at(1505), Attrs: map[string]any{"depth": 2}})
	tr.Add(Span{Name: "dedup_join", Start: at(40), End: at(40), Attrs: map[string]any{"client": "c2"}})
	tr.Add(Span{Name: "sse_stream", Start: at(1600), End: at(2750)})

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","pid":3,"tid":0,"ts":0,"args":{"name":"ftserve job j000009"}},` +
		`{"name":"thread_name","ph":"M","pid":3,"tid":1,"ts":0,"args":{"name":"lifecycle"}},` +
		`{"name":"thread_name","ph":"M","pid":3,"tid":2,"ts":0,"args":{"name":"sse"}},` +
		`{"name":"admission","cat":"job","ph":"X","pid":3,"tid":1,"ts":0,"dur":1,"args":{"dur_ns":300,"job_id":"j000009","trace_id":"trace-gold"}},` +
		`{"name":"queue_wait","cat":"job","ph":"X","pid":3,"tid":1,"ts":5,"dur":1500,"args":{"depth":2,"dur_ns":1500000,"job_id":"j000009","trace_id":"trace-gold"}},` +
		`{"name":"dedup_join","cat":"job","ph":"i","pid":3,"tid":1,"ts":40,"s":"p","args":{"client":"c2","dur_ns":0,"job_id":"j000009","trace_id":"trace-gold"}},` +
		`{"name":"sse_stream","cat":"job","ph":"X","pid":3,"tid":2,"ts":1600,"dur":1150,"args":{"dur_ns":1150000,"job_id":"j000009","trace_id":"trace-gold"}}` +
		"]}\n"
	if got := buf.String(); got != want {
		t.Fatalf("export drifted:\n got %s\nwant %s", got, want)
	}
}
