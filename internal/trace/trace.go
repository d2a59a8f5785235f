// Package trace defines the application communication trace format used by
// the paper's accelerator case studies (§VI, Fig 15) and a sim.Workload
// that replays traces with dependency-driven injection: an event's packet
// is generated only after all the events it depends on have been delivered,
// which is what makes the Token LU dataflow workloads latency-bound.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// Event is one message of a trace.
type Event struct {
	// Src and Dst are PE indices on the target network.
	Src, Dst int
	// Deps lists event indices that must be delivered before this event's
	// packet can be generated at Src.
	Deps []int32
	// Delay is PE compute time in cycles between the last dependency
	// arriving (or simulation start for root events) and the packet being
	// ready to inject.
	Delay int32
}

// Trace is an ordered list of events over a logical PE grid.
type Trace struct {
	// Name labels the workload (e.g. "spmv/circuit-large").
	Name string
	// PEs is the number of logical PEs the trace addresses (0..PEs-1).
	PEs int
	// Events holds the messages; Deps index into this slice.
	Events []Event
}

// Fingerprint returns a stable 64-bit content hash over the trace's name,
// PE count and every event (endpoints, delay, dependencies). The sweep
// result cache (internal/runner) keys trace simulations on it, so two
// generator invocations that produce the same trace share one cache entry
// and any change to the generated events invalidates stale results.
//
// The event count is hashed after the events, not before: the streaming
// FTT1 Writer computes the same fingerprint incrementally while emitting a
// trace whose length it does not know up front, and a recorded trace must
// share cache entries with its in-memory twin.
func (t *Trace) Fingerprint() uint64 {
	h := fpSeed(t.Name, t.PEs)
	for i := range t.Events {
		h = fpEvent(h, &t.Events[i])
	}
	return fpFinish(h, int64(len(t.Events)))
}

// The fingerprint is FNV-64a over little-endian 64-bit words (hand-rolled so
// the per-event streaming paths hash without an interface call per word;
// TestFingerprintMatchesStdlibFNV pins equivalence with hash/fnv).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fpWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// fpSeed starts a fingerprint over the trace header fields.
func fpSeed(name string, pes int) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime64
	}
	return fpWord(h, uint64(pes))
}

// fpEvent folds one event into a running fingerprint.
func fpEvent(h uint64, e *Event) uint64 {
	h = fpWord(h, uint64(e.Src))
	h = fpWord(h, uint64(e.Dst))
	h = fpWord(h, uint64(e.Delay))
	h = fpWord(h, uint64(len(e.Deps)))
	for _, d := range e.Deps {
		h = fpWord(h, uint64(d))
	}
	return h
}

// fpFinish folds the trailing event count in and returns the fingerprint.
func fpFinish(h uint64, events int64) uint64 {
	return fpWord(h, uint64(events))
}

// Validate checks internal consistency: PE indices in range, dependency
// indices valid and strictly smaller than the dependent (the trace is a
// DAG in topological order).
func (t *Trace) Validate() error {
	if t.PEs <= 0 {
		return fmt.Errorf("trace %q: no PEs", t.Name)
	}
	for i, e := range t.Events {
		if err := checkEvent(t.PEs, int64(i), e.Src, e.Dst, e.Delay, e.Deps); err != nil {
			return fmt.Errorf("trace %q: %w", t.Name, err)
		}
	}
	return nil
}

// checkEvent is the per-event half of Validate, shared with the two places
// that see events one at a time: the FTT1 Writer and the replay's admission
// (Stream.admit). Event i of a pes-PE trace must have endpoints in [0,pes),
// a non-negative delay and dependencies in [0,i).
func checkEvent(pes int, i int64, src, dst int, delay int32, deps []int32) error {
	if src < 0 || src >= pes || dst < 0 || dst >= pes {
		return fmt.Errorf("event %d endpoints (%d->%d) out of range [0,%d)", i, src, dst, pes)
	}
	if delay < 0 {
		return fmt.Errorf("event %d has negative delay", i)
	}
	for _, d := range deps {
		if d < 0 || int64(d) >= i {
			return fmt.Errorf("event %d depends on %d (must be in [0,%d))", i, d, i)
		}
	}
	return nil
}

// Stats summarizes a trace's shape.
type Stats struct {
	Events      int
	SelfEvents  int // src == dst (no network traffic)
	MaxFanIn    int
	CritPathLen int // longest dependency chain in events
	AvgDistance float64
}

// ComputeStats derives summary statistics for a trace laid out on a w×h
// torus (for the forward ring distance metric).
func (t *Trace) ComputeStats(w, h int) Stats {
	s := Stats{Events: len(t.Events)}
	depth := make([]int, len(t.Events))
	var distSum float64
	for i, e := range t.Events {
		if e.Src == e.Dst {
			s.SelfEvents++
		}
		if len(e.Deps) > s.MaxFanIn {
			s.MaxFanIn = len(e.Deps)
		}
		d := 1
		for _, dep := range e.Deps {
			if depth[dep]+1 > d {
				d = depth[dep] + 1
			}
		}
		depth[i] = d
		if d > s.CritPathLen {
			s.CritPathLen = d
		}
		sx, sy := e.Src%w, e.Src/w
		dx, dy := e.Dst%w, e.Dst/w
		distSum += float64(((dx-sx)%w+w)%w + ((dy-sy)%h+h)%h)
	}
	if len(t.Events) > 0 {
		s.AvgDistance = distSum / float64(len(t.Events))
	}
	return s
}

// CheckName reports whether name can label a trace in every serialization.
// The text header is space-delimited, so whitespace anywhere in the name
// would shift the PE-count and event-count fields on Read — the name is
// rejected up front rather than written corrupted. The binary format is
// length-prefixed and does not need the restriction, but enforces it too so
// every FTT1 file converts losslessly to text.
func CheckName(name string) error {
	if name == "" {
		return fmt.Errorf("trace: empty name")
	}
	for _, r := range name {
		if unicode.IsSpace(r) {
			return fmt.Errorf("trace: name %q contains whitespace", name)
		}
	}
	return nil
}

// Read parses the text format produced by WriteText.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty input")
	}
	var t Trace
	var n int
	header := strings.Fields(sc.Text())
	if len(header) != 4 || header[0] != "trace" {
		return nil, fmt.Errorf("trace: bad header %q", sc.Text())
	}
	t.Name = header[1]
	var err error
	if t.PEs, err = strconv.Atoi(header[2]); err != nil {
		return nil, fmt.Errorf("trace: bad PE count: %w", err)
	}
	if n, err = strconv.Atoi(header[3]); err != nil {
		return nil, fmt.Errorf("trace: bad event count: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("trace: negative event count %d", n)
	}
	// The header is untrusted: a huge count must fail as truncated input,
	// not as an allocation, so preallocation is capped as in ReadBinary.
	t.Events = make([]Event, 0, min(n, 1<<20))
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("trace: truncated at event %d of %d", i, n)
		}
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			return nil, fmt.Errorf("trace: event %d: too few fields", i)
		}
		var e Event
		if e.Src, err = strconv.Atoi(f[0]); err != nil {
			return nil, fmt.Errorf("trace: event %d src: %w", i, err)
		}
		if e.Dst, err = strconv.Atoi(f[1]); err != nil {
			return nil, fmt.Errorf("trace: event %d dst: %w", i, err)
		}
		d64, err := strconv.ParseInt(f[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: event %d delay: %w", i, err)
		}
		e.Delay = int32(d64)
		for _, df := range f[3:] {
			dep, err := strconv.ParseInt(df, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("trace: event %d dep: %w", i, err)
			}
			e.Deps = append(e.Deps, int32(dep))
		}
		t.Events = append(t.Events, e)
	}
	// The declared event count is a contract, not a hint: trailing non-empty
	// input means the header lies about the trace (or two traces were
	// concatenated), and silently ignoring it would let a corrupted file
	// replay as a shorter workload. Same hostile-input posture as
	// cliflags.DecodeJobSpec.
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			return nil, fmt.Errorf("trace: trailing data after %d declared events: %q", n, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &t, t.Validate()
}
