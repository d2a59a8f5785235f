package monitor

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowSSEClientNeverWedgesServer: a /live/stream client that stops
// reading must not block the snapshot producer — frames are dropped oldest-
// first — and the server keeps answering other endpoints meanwhile.
func TestSlowSSEClientNeverWedgesServer(t *testing.T) {
	// A 64x64 collector makes each SSE frame tens of KB, so a non-reading
	// client's socket buffer fills within a few hundred frames.
	col := NewCollector(64, 64)
	srv, err := StartServer("127.0.0.1:0", ServerOptions{
		Collector:       col,
		SSEInterval:     time.Millisecond,
		SSEWriteTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /live/stream HTTP/1.1\r\nHost: %s\r\n\r\n", srv.Addr())
	// Deliberately never read from conn: the kernel buffers fill and the
	// server-side write stalls against its deadline.

	deadline := time.Now().Add(15 * time.Second)
	for srv.sseDropped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no frames dropped after 15s; producer appears blocked")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The rest of the server must still be responsive while the slow client
	// is wedged.
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatalf("/metrics unreachable with a stalled SSE client: %v", err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(b, []byte("fasttrack_sse_dropped_frames_total")) {
		t.Fatalf("/metrics missing SSE drop counter:\n%s", b)
	}
}
