package core_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/trace"
)

// TestReleasedStreamKeepsNoTrace: a replayed trace is collectable once its
// caller drops it, although the Stream that replayed it waits on a free list
// for the next replay, so a released Stream holds no cursor, header or
// dependency-list alias. The buffer-reuse tests are in internal/trace, which
// can empty the free lists.
func TestReleasedStreamKeepsNoTrace(t *testing.T) {
	tr := goldenTraces(t)[2]
	freed := make(chan struct{})
	runtime.SetFinalizer(tr, func(*trace.Trace) { close(freed) })
	if _, err := core.RunTrace(context.Background(), core.FastTrack(4, 2, 1), tr, core.TraceOptions{}); err != nil {
		t.Fatal(err)
	}
	tr = nil
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("the replayed trace is still reachable after Release and a collection")
	}
}
