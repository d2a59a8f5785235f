package obs

import (
	"bytes"
	"sync/atomic"
	"testing"
)

// TestOfferFrameDropsOldest: the bounded frame buffer never blocks the
// producer; overflowing it discards the oldest frames and counts them.
func TestOfferFrameDropsOldest(t *testing.T) {
	frames := make(chan []byte, 3)
	var dropped atomic.Int64
	for i := 0; i < 10; i++ {
		OfferFrame(frames, []byte{byte(i)}, &dropped)
	}
	if got := dropped.Load(); got != 7 {
		t.Fatalf("want 7 dropped frames, got %d", got)
	}
	// The survivors must be the newest three, in order.
	want := []byte{7, 8, 9}
	for _, w := range want {
		select {
		case b := <-frames:
			if !bytes.Equal(b, []byte{w}) {
				t.Fatalf("want frame %d, got %v", w, b)
			}
		default:
			t.Fatalf("buffer missing frame %d", w)
		}
	}
}
