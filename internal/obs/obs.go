// Package obs is the request-scoped observability plane shared by the
// serving stack (internal/serve), the sweep orchestrator (internal/runner)
// and the core run entry points: trace IDs that follow one job across every
// layer, per-job stage span recording with Perfetto export, fixed-bucket
// duration histograms for the /metrics stage-latency families, the Chrome
// trace-event writer every Perfetto export shares, the drop-oldest rule of
// every SSE stream, and log/slog construction for the CLIs.
//
// The paper's evaluation discipline — measure where cycles go, and bound the
// measurement's own overhead — applies to the serving layer too: everything
// here is allocation-light, lock-narrow, and off the cycle loop unless a run
// attaches the packet tracer, which streams through the trace-event writer.
// A request without a trace attached pays one context lookup per run,
// nothing more.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync/atomic"
)

// NewTraceID returns a fresh 32-hex-char trace identifier.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant ID keeps the
		// plane functional (IDs are correlation handles, not security tokens).
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// maxTraceIDLen bounds inbound X-Ftserve-Trace-Id headers so a hostile
// client cannot make the daemon store or log unbounded strings.
const maxTraceIDLen = 64

// ValidTraceID reports whether a client-supplied trace ID is acceptable:
// 1..64 characters from [0-9A-Za-z._-]. Anything else is discarded and
// replaced by a generated ID.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > maxTraceIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

type ctxKey struct{}

// WithTrace returns ctx carrying a request's span recorder, and with it the
// request's trace and job IDs; downstream layers (core.RunSynthetic's
// engine span, runner.ForEach's sweep spans, every LoggerWith record) read
// them without their signatures naming the observability plane.
func WithTrace(ctx context.Context, t *JobTrace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom extracts the span recorder, or nil.
func TraceFrom(ctx context.Context) *JobTrace {
	t, _ := ctx.Value(ctxKey{}).(*JobTrace)
	return t
}

// LoggerWith returns l with the trace_id and job_id attrs of ctx's JobTrace
// attached (when present), so every record a layer emits under one request
// carries the same correlation handles.
func LoggerWith(ctx context.Context, l *slog.Logger) *slog.Logger {
	if l == nil {
		l = slog.Default()
	}
	t := TraceFrom(ctx)
	if t == nil {
		return l
	}
	l = l.With("trace_id", t.TraceID())
	if id := t.JobID(); id != "" {
		l = l.With("job_id", id)
	}
	return l
}

// NewLogger builds a slog.Logger writing to w. format selects the handler
// ("text" or "json"); level is the minimum record level ("debug", "info",
// "warn", "error"). The flag-facing spelling lives in cliflags.Logging.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lv = slog.LevelInfo
	case "debug":
		lv = slog.LevelDebug
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("obs: unknown log level %q (debug|info|warn|error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (text|json)", format)
	}
}

// OfferFrame enqueues frame on a subscriber's bounded buffer without ever
// blocking: when the buffer is full the oldest frame is discarded to make
// room, and each lost frame is counted in dropped. It is the backpressure
// rule of ftserve's job SSE streams: a slow client loses intermediate
// frames, never the producer's liveness. ch must have one producer at a
// time, and a send must not race its close.
func OfferFrame(ch chan []byte, frame []byte, dropped *atomic.Int64) {
	select {
	case ch <- frame:
		return
	default:
	}
	select {
	case <-ch:
		dropped.Add(1)
	default:
	}
	select {
	case ch <- frame:
	default:
		// The freed slot was taken after all; losing the new frame is as
		// acceptable as losing the oldest.
		dropped.Add(1)
	}
}
