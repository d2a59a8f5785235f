package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one interval at a boundary the benchmark itself crosses. Spans of
// one job, figure or request share a trace ID.
type span struct {
	id, parent int
	lane       int
	name       string
	traceID    string
	start, end time.Duration // since the recorder's epoch
	args       map[string]any
}

// recorder keeps spans in memory until the run ends. A nil *recorder records
// nothing, so untraced passes pay one nil check per call site.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span now and returns its ID (0 on a nil recorder). parent 0
// means a root span.
func (r *recorder) begin(parent, lane int, traceID, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		id: len(r.spans) + 1, parent: parent, lane: lane,
		name: name, traceID: traceID, start: now, end: -1,
	})
	return len(r.spans)
}

// end closes span id now, attaching args (counts measured at the same
// boundary).
func (r *recorder) end(id int, args map[string]any) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].end = now
	r.spans[id-1].args = args
}

// add records an interval timed elsewhere: a per-job aggregate of one engine
// phase, or a server-side span fetched from the daemon.
func (r *recorder) add(parent, lane int, traceID, name string, start time.Time, dur time.Duration, args map[string]any) int {
	if r == nil {
		return 0
	}
	s := start.Sub(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		id: len(r.spans) + 1, parent: parent, lane: lane,
		name: name, traceID: traceID, start: s, end: s + dur, args: args,
	})
	return len(r.spans)
}

// writeChrome writes the spans as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev, "Open trace file"). Every slice carries its
// span and parent IDs, its trace ID, and self_us: its duration minus the
// part its direct children cover.
func (r *recorder) writeChrome(path string, prov provenance) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()

	childUS := make([]float64, len(spans)+1)
	for _, s := range spans {
		if s.end >= s.start {
			childUS[s.parent] += float64(s.end-s.start) / 1e3
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	for _, s := range spans {
		if s.end < s.start {
			continue // never closed: the pass failed part-way
		}
		durUS := float64(s.end-s.start) / 1e3
		args := map[string]any{
			"span_id": s.id, "parent": s.parent,
			"self_us": max(durUS-childUS[s.id], 0),
		}
		if s.traceID != "" {
			args["trace_id"] = s.traceID
		}
		for k, v := range s.args {
			args[k] = v
		}
		b, err := json.Marshal(map[string]any{
			"name": s.name, "cat": "bench", "ph": "X", "pid": 1, "tid": s.lane,
			"ts": float64(s.start) / 1e3, "dur": max(durUS, 0.001), "args": args,
		})
		if err != nil {
			f.Close()
			return err
		}
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.Write(b)
	}
	meta, err := json.Marshal(prov)
	if err != nil {
		f.Close()
		return err
	}
	bw.WriteString(`],"displayTimeUnit":"ms","metadata":`)
	bw.Write(meta)
	bw.WriteString("}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
