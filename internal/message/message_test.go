package message

import (
	"testing"

	"fasttrack/internal/fasttrack"
	"fasttrack/internal/hoplite"
	"fasttrack/internal/sim"
)

func TestFlitsPerMessage(t *testing.T) {
	cases := []struct {
		msg, width, want int
	}{
		{512, 512, 1},
		{512, 256, 2},
		{512, 100, 6},
		{64, 256, 1},
	}
	for _, c := range cases {
		s, err := NewStream(4, 4, c.msg, c.width, 0.5, 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.flitsPerMsg; got != c.want {
			t.Errorf("flits(%d,%d) = %d, want %d", c.msg, c.width, got, c.want)
		}
	}
	if _, err := NewStream(4, 4, 0, 64, 0.5, 10, 1); err == nil {
		t.Error("zero message size should be rejected")
	}
}

func TestAllMessagesComplete(t *testing.T) {
	nw, err := hoplite.New(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStream(4, 4, 512, 128, 0.8, 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(nw, s, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantMsgs := int64(16 * 25)
	if s.MessagesDelivered() != wantMsgs {
		t.Fatalf("delivered %d messages, want %d", s.MessagesDelivered(), wantMsgs)
	}
	if res.Delivered != wantMsgs*4 {
		t.Fatalf("delivered %d flits, want %d", res.Delivered, wantMsgs*4)
	}
	if s.MessageLatency().Count() != wantMsgs {
		t.Fatalf("latency samples %d", s.MessageLatency().Count())
	}
	// A 4-flit message cannot complete faster than its serialization time.
	if s.MessageLatency().Min() < 3 {
		t.Errorf("min message latency %.0f below serialization floor", s.MessageLatency().Min())
	}
}

// TestSerializationCostVisible: at equal line size, a narrower NoC needs
// proportionally more cycles per message.
func TestSerializationCostVisible(t *testing.T) {
	run := func(width int) float64 {
		top, err := fasttrack.NewTopology(4, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := fasttrack.New(fasttrack.Config{Topology: top})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStream(4, 4, 512, width, 0.3, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(nw, s, sim.Options{}); err != nil {
			t.Fatal(err)
		}
		return s.MessageLatency().Mean()
	}
	narrow, wide := run(64), run(512)
	if narrow < 2*wide {
		t.Errorf("8-flit latency %.1f should be well above 1-flit %.1f", narrow, wide)
	}
}
