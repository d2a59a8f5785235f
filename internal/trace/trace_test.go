package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"fasttrack/internal/xrand"
)

func tinyTrace() *Trace {
	return &Trace{
		Name: "tiny",
		PEs:  4,
		Events: []Event{
			{Src: 0, Dst: 1, Delay: 2},
			{Src: 1, Dst: 2, Delay: 1, Deps: []int32{0}},
			{Src: 2, Dst: 2, Delay: 3, Deps: []int32{1}}, // self compute
			{Src: 2, Dst: 0, Delay: 1, Deps: []int32{2}},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := tinyTrace().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Trace{
		{Name: "noPE", PEs: 0},
		{Name: "range", PEs: 2, Events: []Event{{Src: 0, Dst: 5}}},
		{Name: "fwdDep", PEs: 2, Events: []Event{{Src: 0, Dst: 1, Deps: []int32{0}}}},
		{Name: "negDelay", PEs: 2, Events: []Event{{Src: 0, Dst: 1, Delay: -1}}},
	}
	for _, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("trace %q should fail validation", tr.Name)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.PEs != tr.PEs || len(got.Events) != len(tr.Events) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range tr.Events {
		a, b := tr.Events[i], got.Events[i]
		if a.Src != b.Src || a.Dst != b.Dst || a.Delay != b.Delay || len(a.Deps) != len(b.Deps) {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

// TestRoundTripProperty fuzzes random DAG traces through Write/Read.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nn uint8) bool {
		rng := xrand.New(seed)
		pes := 4
		n := int(nn%40) + 1
		b := NewBuilder("fuzz", pes)
		for i := 0; i < n; i++ {
			var deps []int32
			for d := 0; d < i && len(deps) < 3; d++ {
				if rng.Bool(0.1) {
					deps = append(deps, int32(d))
				}
			}
			b.Add(rng.Intn(pes), rng.Intn(pes), int32(rng.Intn(5)), deps...)
		}
		tr, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i].Src != tr.Events[i].Src || got.Events[i].Dst != tr.Events[i].Dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"",
		"nottrace a 1 1\n0 1 0\n",
		"trace x 4 2\n0 1 0\n",            // truncated
		"trace x 4 1\n0 1\n",              // too few fields
		"trace x 4 1\n0 9 0\n",            // out of range (via Validate)
		"trace x 4 1152921504606846976\n", // count beyond any allocation
		"trace x 4 -1\n",                  // negative count
	} {
		if _, err := Read(bytes.NewReader([]byte(s))); err == nil {
			t.Errorf("Read(%q) should fail", s)
		}
	}
}

// FuzzRead: the text reader must never panic, whatever its header claims,
// and any trace it accepts must pass Validate.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteText(&buf, tinyTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("trace x 4 1152921504606846976\n"))
	f.Add([]byte("trace x 4 -1\n"))
	f.Add([]byte("trace x 4 1\n0 1 0 -3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("accepted trace fails Validate: %v", verr)
		}
	})
}

// TestWriteRejectsWhitespaceName: the text format is whitespace-delimited, so
// a name containing whitespace would shift every later field on Read. Write
// must refuse to produce such a file rather than corrupt the round trip.
func TestWriteRejectsWhitespaceName(t *testing.T) {
	for _, name := range []string{"has space", "tab\tname", "nl\nname", "", " lead"} {
		tr := tinyTrace()
		tr.Name = name
		var buf bytes.Buffer
		if err := WriteText(&buf, tr); err == nil {
			t.Errorf("Write with Name=%q should fail", name)
		}
		if buf.Len() != 0 {
			t.Errorf("Write with Name=%q emitted %d bytes before failing", name, buf.Len())
		}
	}
}

// TestReadRejectsTrailingData: input carrying extra non-empty lines after the
// declared event count is malformed, not a longer trace — hostile-input
// posture matching the binary reader.
func TestReadRejectsTrailingData(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	for _, trailing := range []string{"0 1 0\n", "junk\n", "\n\nx"} {
		if _, err := Read(bytes.NewReader([]byte(good + trailing))); err == nil {
			t.Errorf("Read with trailing %q should fail", trailing)
		}
	}
	// Trailing blank lines / final newline remain acceptable.
	for _, trailing := range []string{"", "\n", "\n\n"} {
		if _, err := Read(bytes.NewReader([]byte(good + trailing))); err != nil {
			t.Errorf("Read with benign trailing %q failed: %v", trailing, err)
		}
	}
}

func TestComputeStats(t *testing.T) {
	s := tinyTrace().ComputeStats(2, 2)
	if s.Events != 4 || s.SelfEvents != 1 {
		t.Errorf("stats %+v", s)
	}
	if s.CritPathLen != 4 {
		t.Errorf("critical path %d, want 4", s.CritPathLen)
	}
	if s.MaxFanIn != 1 {
		t.Errorf("fan-in %d", s.MaxFanIn)
	}
}

// TestWorkloadDependencyOrder drives the workload by hand, verifying an
// event is never offered before all its dependencies completed.
func TestWorkloadDependencyOrder(t *testing.T) {
	tr := tinyTrace()
	w, err := NewWorkload(tr, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	completed := map[int32]bool{}
	now := int64(0)
	for !w.Done() {
		w.Tick(now)
		// Self events are retired by the workload internally (in Tick): read
		// their state off the ring. The window is off, so event i is slot i.
		for i, e := range tr.Events {
			if w.ring[i].remaining < 0 {
				t.Fatal("remaining went negative")
			}
			if e.Src == e.Dst {
				completed[int32(i)] = w.ring[i].doneAt != notDone
			}
		}
		for pe := 0; pe < 4; pe++ {
			p, ok := w.Pending(pe, now)
			if !ok {
				continue
			}
			for _, d := range tr.Events[p.Event].Deps {
				if !completed[d] {
					t.Fatalf("event %d offered before dep %d completed", p.Event, d)
				}
			}
			w.Injected(pe, now)
			// Instant network: deliver immediately.
			completed[p.Event] = true
			w.Delivered(p, now)
		}
		now++
		if now > 1000 {
			t.Fatal("workload did not finish")
		}
	}
	if w.Completed() != len(tr.Events) {
		t.Errorf("completed %d of %d", w.Completed(), len(tr.Events))
	}
}

// TestWorkloadHonoursDelay: a root event with Delay=5 must not be offered
// before cycle 5.
func TestWorkloadHonoursDelay(t *testing.T) {
	tr := &Trace{Name: "d", PEs: 4, Events: []Event{{Src: 0, Dst: 1, Delay: 5}}}
	w, err := NewWorkload(tr, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 5; now++ {
		w.Tick(now)
		if _, ok := w.Pending(0, now); ok {
			t.Fatalf("event offered at cycle %d, before its delay", now)
		}
	}
	w.Tick(5)
	if _, ok := w.Pending(0, 5); !ok {
		t.Fatal("event not offered at its ready time")
	}
}

func TestWorkloadRejectsWrongGeometry(t *testing.T) {
	if _, err := NewWorkload(tinyTrace(), 4, 4); err == nil {
		t.Error("PE count mismatch should be rejected")
	}
}

func TestBuilderProducesValidTraces(t *testing.T) {
	b := NewBuilder("b", 4)
	e0 := b.Add(0, 1, 0)
	b.Add(1, 0, 1, e0)
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 || b.Len() != 2 {
		t.Errorf("builder length mismatch")
	}
}
