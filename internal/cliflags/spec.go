package cliflags

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/traffic"
)

// JobSpec is the wire form of one daemon job: the same vocabulary as the
// flag groups (identical spellings, thanks to the groups' JSON tags), posted
// as JSON to ftserve instead of typed on a command line. A spec is a pure
// value — everything the simulation depends on is inside it, so identical
// specs are identical jobs and the daemon can dedupe them through the
// content-addressed result cache.
//
// Kinds:
//
//   - "sim":   one synthetic run (Topology + Workload [+ Faults]).
//   - "sweep": the same network swept over Rates (Workload.Rate ignored).
type JobSpec struct {
	Kind     string    `json:"kind"`
	Topology *Topology `json:"topology,omitempty"`
	Workload *Workload `json:"workload,omitempty"`
	Faults   *Faults   `json:"faults,omitempty"`

	// Rates is the sweep grid for kind "sweep".
	Rates []float64 `json:"rates,omitempty"`

	// MaxCycles bounds each run; 0 means the engine default.
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// ConvergeWindow/ConvergeTol arm the engine's early-exit stationarity
	// test (see sim.Options).
	ConvergeWindow int64   `json:"converge_window,omitempty"`
	ConvergeTol    float64 `json:"converge_tol,omitempty"`
	// Check enables the per-cycle conservation audit; Watchdog arms the
	// starvation watchdog at this packet age.
	Check    bool  `json:"check,omitempty"`
	Watchdog int64 `json:"watchdog,omitempty"`

	// TimeoutMS is the job's wall-clock deadline in milliseconds; the
	// daemon's -job-timeout caps it. 0 inherits the daemon default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SpecError is a structured job-spec rejection: Field names the offending
// JSON field (empty for document-level problems). The daemon serializes it
// into 400 responses, so a client learns exactly what to fix.
type SpecError struct {
	Field string `json:"field,omitempty"`
	Msg   string `json:"message"`
}

func (e *SpecError) Error() string {
	if e.Field == "" {
		return "job spec: " + e.Msg
	}
	return fmt.Sprintf("job spec: field %q: %s", e.Field, e.Msg)
}

func specErr(field, format string, args ...any) error {
	return &SpecError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Admission bounds. They exist so a malformed or adversarial spec can be
// refused before it allocates anything: a 1024-wide torus is a million
// routers, and the daemon is not the place to discover that by OOM.
const (
	// MaxSpecBytes bounds the JSON document itself.
	MaxSpecBytes = 1 << 16
	// MaxSpecN bounds the torus width.
	MaxSpecN = 128
	// MaxSpecPackets bounds the per-PE generation quota.
	MaxSpecPackets = 1_000_000
	// MaxSpecRates bounds the sweep grid size.
	MaxSpecRates = 128
	// MaxSpecCycles bounds MaxCycles and Watchdog.
	MaxSpecCycles = 1_000_000_000
)

// DecodeJobSpec reads one JSON job spec from r (at most MaxSpecBytes),
// rejecting unknown fields, trailing garbage, and anything out of
// Validate's bounds. The returned spec is normalized: nil groups are
// replaced with their flag defaults, so callers never see a half-empty
// spec. Errors are *SpecError (or wrap one) and are safe to show clients.
func DecodeJobSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxSpecBytes+1))
	dec.DisallowUnknownFields()
	var s JobSpec
	if err := dec.Decode(&s); err != nil {
		return nil, &SpecError{Msg: "invalid JSON: " + err.Error()}
	}
	if dec.More() {
		return nil, &SpecError{Msg: "trailing data after the job spec"}
	}
	s.normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// normalize fills nil groups with the flag defaults, and zero seeds with the
// flags' default seed 1 (-seed, -faultseed), so a spec runs the same traffic
// and fault schedule as the command line it mirrors.
func (s *JobSpec) normalize() {
	if s.Topology == nil {
		def := TopologyDefaults()
		s.Topology = &def
	}
	if s.Workload == nil {
		def := WorkloadDefaults()
		s.Workload = &def
	}
	if s.Workload.Seed == 0 {
		s.Workload.Seed = 1
	}
	if s.Faults != nil && s.Faults.Seed == 0 {
		s.Faults.Seed = 1
	}
}

// Validate checks the spec against the admission bounds; errors are
// *SpecError. The spec must be normalized (DecodeJobSpec does both).
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case "sim", "sweep":
	case "":
		return specErr("kind", "required (sim|sweep)")
	default:
		return specErr("kind", "unknown kind %q (sim|sweep)", s.Kind)
	}
	t := s.Topology
	if t.N < 2 || t.N > MaxSpecN {
		return specErr("topology.n", "torus width %d out of range [2,%d]", t.N, MaxSpecN)
	}
	if t.D < 0 || t.R < 0 || t.Channels < 0 || t.Width < 0 {
		return specErr("topology", "negative parameter")
	}
	// Delegate kind/variant legality to the same builder the CLIs use, so a
	// spec that decodes is a spec that builds.
	if _, err := t.Config(); err != nil {
		return specErr("topology", "%v", err)
	}
	w := s.Workload
	if _, err := traffic.ByName(w.Pattern); err != nil {
		return specErr("workload.pattern", "%v", err)
	}
	if !(w.Rate > 0 && w.Rate <= 1) || math.IsNaN(w.Rate) {
		return specErr("workload.rate", "injection rate %v out of range (0,1]", w.Rate)
	}
	if w.PacketsPerPE < 1 || w.PacketsPerPE > MaxSpecPackets {
		return specErr("workload.packets", "per-PE quota %d out of range [1,%d]", w.PacketsPerPE, MaxSpecPackets)
	}
	if f := s.Faults; f != nil {
		if f.DropRate < 0 || f.DropRate > 1 || f.MisrouteRate < 0 || f.MisrouteRate > 1 {
			return specErr("faults", "fault probabilities out of range [0,1]")
		}
		if f.RetryTimeout < 0 {
			return specErr("faults.retry", "negative retransmit timeout")
		}
	}
	switch s.Kind {
	case "sweep":
		if len(s.Rates) == 0 {
			return specErr("rates", "kind sweep requires a non-empty rate grid")
		}
		if len(s.Rates) > MaxSpecRates {
			return specErr("rates", "%d rates exceed the limit of %d", len(s.Rates), MaxSpecRates)
		}
		for i, r := range s.Rates {
			if !(r > 0 && r <= 1) || math.IsNaN(r) {
				return specErr("rates", "rates[%d]=%v out of range (0,1]", i, r)
			}
		}
	default:
		if len(s.Rates) > 0 {
			return specErr("rates", "rates are only valid for kind sweep")
		}
	}
	if s.MaxCycles < 0 || s.MaxCycles > MaxSpecCycles {
		return specErr("max_cycles", "cycle bound %d out of range [0,%d]", s.MaxCycles, MaxSpecCycles)
	}
	if s.Watchdog < 0 || s.Watchdog > MaxSpecCycles {
		return specErr("watchdog", "packet-age bound %d out of range [0,%d]", s.Watchdog, MaxSpecCycles)
	}
	if s.ConvergeWindow < 0 || s.ConvergeWindow > MaxSpecCycles {
		return specErr("converge_window", "window %d out of range [0,%d]", s.ConvergeWindow, MaxSpecCycles)
	}
	if s.ConvergeTol < 0 || s.ConvergeTol > 1 || math.IsNaN(s.ConvergeTol) {
		return specErr("converge_tol", "tolerance %v out of range [0,1]", s.ConvergeTol)
	}
	if s.TimeoutMS < 0 {
		return specErr("timeout_ms", "negative deadline")
	}
	return nil
}

// SimConfig converts a validated spec into the core configuration and run
// options a single simulation needs; the rate argument overrides the
// workload rate (sweep jobs call it once per grid point; pass
// s.Workload.Rate for kind sim).
func (s *JobSpec) SimConfig(rate float64) (core.Config, core.SyntheticOptions, error) {
	cfg, err := s.Topology.Config()
	if err != nil {
		return core.Config{}, core.SyntheticOptions{}, err
	}
	opts := core.SyntheticOptions{
		MaxCycles:         s.MaxCycles,
		CheckConservation: s.Check,
		MaxPacketAge:      s.Watchdog,
		ConvergeWindow:    s.ConvergeWindow,
		ConvergeTol:       s.ConvergeTol,
	}
	s.Workload.Apply(&opts)
	opts.Rate = rate
	if s.Faults != nil {
		s.Faults.Apply(&opts)
	}
	return cfg, opts, nil
}

// Timeout returns the job's requested deadline (0 = none requested).
func (s *JobSpec) Timeout() time.Duration {
	return time.Duration(s.TimeoutMS) * time.Millisecond
}

// CanonicalKey is a stable identity for the whole job: the normalized spec
// re-marshalled with Go's deterministic field order. The daemon uses it for
// in-flight dedup (two identical POSTs join one job); the per-run cache
// keys underneath remain runner.SyntheticKey and friends.
func (s *JobSpec) CanonicalKey() (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	return "jobspec|" + string(b), nil
}

// AsSpecError extracts the structured form from any error produced by
// DecodeJobSpec, falling back to a document-level SpecError.
func AsSpecError(err error) *SpecError {
	var se *SpecError
	if errors.As(err, &se) {
		return se
	}
	return &SpecError{Msg: err.Error()}
}
