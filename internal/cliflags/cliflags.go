// Package cliflags holds the flag groups shared by the command-line tools
// (ftsim, fttrace, ftexp, ftserve), so every tool spells the same
// option the same way and new options appear everywhere at once. Each group
// is registered on a flag.FlagSet with Register* and converted to the
// corresponding config after flag.Parse with the group's method.
package cliflags

import (
	"flag"
	"fmt"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/runner"
)

// Topology is the NoC-selection flag group (-noc, -n, -d, -r, -variant,
// -channels, -width). The JSON tags mirror the flag spellings so a daemon
// job spec (see JobSpec) and a command line describe a network identically.
type Topology struct {
	Kind     string `json:"noc"`
	N        int    `json:"n"`
	D        int    `json:"d,omitempty"`
	R        int    `json:"r,omitempty"`
	Variant  string `json:"variant,omitempty"`
	Channels int    `json:"channels,omitempty"`
	Width    int    `json:"width,omitempty"`
}

// TopologyDefaults returns the default topology (-noc ft -n 8 -d 2 -r 1).
func TopologyDefaults() Topology {
	return Topology{Kind: "ft", N: 8, D: 2, R: 1, Variant: "full", Channels: 2, Width: 256}
}

// RegisterTopology registers the topology flags on fs with defaults def and
// returns the destination struct, filled in after fs is parsed.
func RegisterTopology(fs *flag.FlagSet, def Topology) *Topology {
	t := &def
	fs.StringVar(&t.Kind, "noc", def.Kind, "network kind: hoplite | ft | multi")
	fs.IntVar(&t.N, "n", def.N, "torus width (NoC is NxN)")
	fs.IntVar(&t.D, "d", def.D, "FastTrack express link length D")
	fs.IntVar(&t.R, "r", def.R, "FastTrack depopulation factor R")
	fs.StringVar(&t.Variant, "variant", def.Variant, "FastTrack router variant: full | inject")
	fs.IntVar(&t.Channels, "channels", def.Channels, "channel count for -noc multi")
	fs.IntVar(&t.Width, "width", def.Width, "datapath width in bits (FPGA model)")
	return t
}

// Config converts the parsed flags into a core.Config.
func (t *Topology) Config() (core.Config, error) {
	var cfg core.Config
	switch t.Kind {
	case "hoplite":
		cfg = core.Hoplite(t.N)
	case "ft":
		cfg = core.FastTrack(t.N, t.D, t.R)
		switch t.Variant {
		case "", "full":
		case "inject":
			cfg = cfg.WithVariant(core.VariantInject)
		default:
			return core.Config{}, fmt.Errorf("unknown -variant %q (full|inject)", t.Variant)
		}
	case "multi":
		cfg = core.MultiChannel(t.N, t.Channels)
	default:
		return core.Config{}, fmt.Errorf("unknown -noc %q (hoplite|ft|multi)", t.Kind)
	}
	return cfg.WithWidth(t.Width), nil
}

// Workload is the synthetic-workload flag group (-pattern, -rate, -packets,
// -seed); JSON tags mirror the flag spellings (see JobSpec).
type Workload struct {
	Pattern      string  `json:"pattern"`
	Rate         float64 `json:"rate"`
	PacketsPerPE int     `json:"packets"`
	Seed         uint64  `json:"seed,omitempty"`
}

// WorkloadDefaults returns the default workload (RANDOM @ 0.5, 1000 pkts/PE).
func WorkloadDefaults() Workload {
	return Workload{Pattern: "RANDOM", Rate: 0.5, PacketsPerPE: 1000, Seed: 1}
}

// RegisterWorkload registers the workload flags on fs with defaults def.
func RegisterWorkload(fs *flag.FlagSet, def Workload) *Workload {
	w := &def
	fs.StringVar(&w.Pattern, "pattern", def.Pattern, "traffic pattern: RANDOM|LOCAL|BITCOMPL|TRANSPOSE|TORNADO")
	fs.Float64Var(&w.Rate, "rate", def.Rate, "injection rate per PE per cycle")
	fs.IntVar(&w.PacketsPerPE, "packets", def.PacketsPerPE, "packets generated per PE")
	fs.Uint64Var(&w.Seed, "seed", def.Seed, "random seed")
	return w
}

// Apply copies the parsed workload flags into o.
func (w *Workload) Apply(o *core.SyntheticOptions) {
	o.Pattern = w.Pattern
	o.Rate = w.Rate
	o.PacketsPerPE = w.PacketsPerPE
	o.Seed = w.Seed
}

// Replay is the trace-replay flag group (-trace-window). An explicit window
// can change what the replay of a recorded (.ftt) trace computes (a binding
// window delays injection — see trace.StreamOptions.Window), so
// runner.TraceKey keys it whenever it is set. A text trace is read into memory and goes through the same
// trace.Stream with the window off, so the flag does not reach it.
type Replay struct {
	Window int
}

// RegisterReplay registers the streaming-replay flags on fs.
func RegisterReplay(fs *flag.FlagSet) *Replay {
	r := &Replay{}
	fs.IntVar(&r.Window, "trace-window", 0,
		"streaming replay: max resident events when replaying a recorded (.ftt) trace; 0 = default (replay memory is O(window), independent of trace length)")
	return r
}

// Apply copies the parsed replay flags into o.
func (r *Replay) Apply(o *core.TraceOptions) { o.StreamWindow = r.Window }

// Faults is the fault-injection flag group (-faults, -misroute, -faultseed,
// -retry); JSON tags mirror the flag spellings (see JobSpec).
type Faults struct {
	DropRate     float64 `json:"faults,omitempty"`
	MisrouteRate float64 `json:"misroute,omitempty"`
	Seed         uint64  `json:"faultseed,omitempty"`
	RetryTimeout int64   `json:"retry,omitempty"`
}

// RegisterFaults registers the fault flags on fs (all off by default).
func RegisterFaults(fs *flag.FlagSet) *Faults {
	f := &Faults{Seed: 1}
	fs.Float64Var(&f.DropRate, "faults", 0, "transient fault injection: per-packet drop probability (0 = off)")
	fs.Float64Var(&f.MisrouteRate, "misroute", 0, "transient fault injection: per-packet address-corruption probability")
	fs.Uint64Var(&f.Seed, "faultseed", 1, "fault schedule seed (schedules replay identically per seed)")
	fs.Int64Var(&f.RetryTimeout, "retry", 0, "resilient delivery: retransmit timeout in cycles (0 = off)")
	return f
}

// Apply installs the fault schedule and retry policy on o when enabled.
func (f *Faults) Apply(o *core.SyntheticOptions) {
	if f.DropRate > 0 || f.MisrouteRate > 0 {
		o.Faults = &core.FaultConfig{
			Seed: f.Seed, DropRate: f.DropRate, MisrouteRate: f.MisrouteRate,
		}
	}
	if f.RetryTimeout > 0 {
		o.Retry = &core.RetryConfig{Timeout: f.RetryTimeout}
	}
}

// Sweep is the orchestration flag group (-workers, -cache-dir, -no-cache,
// -job-timeout).
type Sweep struct {
	Workers    int
	CacheDir   string
	NoCache    bool
	JobTimeout time.Duration
}

// RegisterSweep registers the sweep flags on fs.
func RegisterSweep(fs *flag.FlagSet) *Sweep {
	s := &Sweep{}
	fs.IntVar(&s.Workers, "workers", 0, "simulation worker pool size (0 = one per CPU)")
	fs.StringVar(&s.CacheDir, "cache-dir", runner.DefaultCacheDir, "content-addressed result cache directory")
	fs.BoolVar(&s.NoCache, "no-cache", false, "disable the result cache (every run simulates fresh)")
	fs.DurationVar(&s.JobTimeout, "job-timeout", 0, "per-job wall-clock deadline; a job past it fails with a timeout error (0 = none)")
	return s
}

// Cache opens the result cache, or returns nil with -no-cache.
func (s *Sweep) Cache() (*runner.Cache, error) {
	if s.NoCache {
		return nil, nil
	}
	return runner.NewCache(s.CacheDir)
}

// Orchestrator builds a sweep orchestrator honoring the flags.
func (s *Sweep) Orchestrator() (*runner.Orchestrator, error) {
	cache, err := s.Cache()
	if err != nil {
		return nil, err
	}
	return &runner.Orchestrator{Workers: s.Workers, Cache: cache, JobTimeout: s.JobTimeout}, nil
}
