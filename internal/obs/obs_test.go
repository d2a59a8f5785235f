package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceIDGenerationAndValidation(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatalf("two generated trace IDs collide: %s", a)
	}
	if len(a) != 32 || !ValidTraceID(a) {
		t.Fatalf("generated ID %q is not a valid 32-char trace ID", a)
	}
	valid := []string{"a", "req-42", "A.b_c-9", strings.Repeat("x", 64)}
	for _, s := range valid {
		if !ValidTraceID(s) {
			t.Errorf("ValidTraceID(%q) = false, want true", s)
		}
	}
	invalid := []string{"", strings.Repeat("x", 65), "has space", "semi;colon", "ünicode", "a\nb"}
	for _, s := range invalid {
		if ValidTraceID(s) {
			t.Errorf("ValidTraceID(%q) = true, want false", s)
		}
	}
}

func TestContextPropagation(t *testing.T) {
	tr := NewJobTrace("tid-1")
	tr.SetJobID("j000001")
	ctx := context.Background()
	if TraceFrom(ctx) != nil {
		t.Fatal("empty context should carry nothing")
	}
	ctx = WithTrace(ctx, tr)
	got := TraceFrom(ctx)
	if got != tr {
		t.Fatal("TraceFrom did not round-trip")
	}
	if got.TraceID() != "tid-1" || got.JobID() != "j000001" {
		t.Fatalf("trace carries IDs %q/%q, want tid-1/j000001", got.TraceID(), got.JobID())
	}
}

func TestJobTraceSpansAndExport(t *testing.T) {
	tr := NewJobTrace("")
	if tr.TraceID() == "" {
		t.Fatal("empty trace ID was not auto-generated")
	}
	tr.SetJobID("j000042")

	sp := tr.Begin("queue_wait").Attr("depth", 3)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("span duration %v not positive", d)
	}
	tr.Event("dedup_join", map[string]any{"client": "c1"})
	tr.Add(Span{Name: "job", Start: tr.Start(), End: tr.Start().Add(5 * time.Millisecond)})

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "queue_wait" || spans[0].Attrs["depth"] != 3 {
		t.Fatalf("first span wrong: %+v", spans[0])
	}
	if spans[1].Dur() != 0 {
		t.Fatalf("event span has duration %v", spans[1].Dur())
	}

	ex := tr.Export()
	if ex.TraceID != tr.TraceID() || ex.JobID != "j000042" || len(ex.Spans) != 3 {
		t.Fatalf("export wrong: %+v", ex)
	}
	if ex.Spans[0].DurNS != int64(d) {
		t.Fatalf("export dur_ns %d != recorded %d", ex.Spans[0].DurNS, int64(d))
	}
}

// Nil receivers must be safe: call sites are unconditional.
func TestJobTraceNilSafety(t *testing.T) {
	var tr *JobTrace
	if tr.Begin("x").Attr("k", 1).End() != 0 {
		t.Fatal("nil trace Begin/End not a no-op")
	}
	tr.Event("e", nil)
	tr.Add(Span{})
	if tr.Spans() != nil {
		t.Fatal("nil trace has spans")
	}
	if ex := tr.Export(); len(ex.Spans) != 0 {
		t.Fatal("nil trace exports spans")
	}
}

func TestWriteChromePerfettoShape(t *testing.T) {
	tr := NewJobTrace("trace-abc")
	tr.SetJobID("j000007")
	tr.Begin("admission").End()
	tr.Begin("sse_stream").Attr("client", "c9").End()
	tr.Event("dedup_join", nil)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	byName := map[string]int{}
	for i, ev := range doc.TraceEvents {
		byName[ev.Name] = i
		if ev.PID != jobPID {
			t.Errorf("event %q pid %d, want %d", ev.Name, ev.PID, jobPID)
		}
	}
	adm := doc.TraceEvents[byName["admission"]]
	if adm.Ph != "X" || adm.Args["trace_id"] != "trace-abc" || adm.Args["job_id"] != "j000007" {
		t.Fatalf("admission event wrong: %+v", adm)
	}
	if _, ok := adm.Args["dur_ns"]; !ok {
		t.Fatal("admission event missing dur_ns arg")
	}
	if sse := doc.TraceEvents[byName["sse_stream"]]; sse.TID != tidSSE {
		t.Fatalf("sse_stream on tid %d, want %d", sse.TID, tidSSE)
	}
	if join := doc.TraceEvents[byName["dedup_join"]]; join.Ph != "i" {
		t.Fatalf("dedup_join ph %q, want instant", join.Ph)
	}
}

func TestLoggerWith(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewJSONHandler(&buf, nil))
	tr := NewJobTrace("t-1")
	tr.SetJobID("j-1")
	LoggerWith(WithTrace(context.Background(), tr), l).Info("hello")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["trace_id"] != "t-1" || rec["job_id"] != "j-1" {
		t.Fatalf("record missing ids: %v", rec)
	}
	// No IDs attached: logger passes through unchanged.
	buf.Reset()
	LoggerWith(context.Background(), l).Info("plain")
	if strings.Contains(buf.String(), "trace_id") {
		t.Fatal("plain context leaked a trace_id attr")
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept")
	if strings.Contains(buf.String(), "dropped") || !strings.Contains(buf.String(), "kept") {
		t.Fatalf("level filter wrong: %s", buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json handler output not JSON: %v", err)
	}

	if _, err := NewLogger(&buf, "text", "debug"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLogger(&buf, "xml", "info"); err == nil {
		t.Fatal("bogus format accepted")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Fatal("bogus level accepted")
	}
}

func TestConcurrentTraceUse(t *testing.T) {
	tr := NewJobTrace("race")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Begin("sim_run").Attr("g", g).End()
			}
		}(g)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 800 {
		t.Fatalf("got %d spans, want 800", got)
	}
}
