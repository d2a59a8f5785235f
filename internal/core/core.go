// Package core is the public face of the FastTrack reproduction: a single
// configuration type that can build any of the paper's NoCs (baseline
// Hoplite, FastTrack FT(N²,D,R) in both router variants, multi-channel
// Hoplite), evaluate its FPGA cost/frequency/power on the Virtex-7 model,
// and run synthetic or application-trace workloads on it.
//
// Typical use:
//
//	cfg := core.FastTrack(8, 2, 1)            // FT(64,2,1)
//	net, _ := cfg.Build()                     // cycle-accurate network
//	res, _ := core.RunSynthetic(context.Background(), cfg, core.SyntheticOptions{
//	    Pattern: "RANDOM", Rate: 0.5, PacketsPerPE: 1000, Seed: 1,
//	})
//	fmt.Println(res.SustainedRate, res.AvgLatency)
package core

import (
	"context"
	"fmt"

	"fasttrack/internal/fasttrack"
	"fasttrack/internal/faults"
	"fasttrack/internal/fpga"
	"fasttrack/internal/hoplite"
	"fasttrack/internal/multichannel"
	"fasttrack/internal/noc"
	"fasttrack/internal/obs"
	"fasttrack/internal/reliability"
	"fasttrack/internal/sim"
	"fasttrack/internal/telemetry"
	"fasttrack/internal/trace"
	"fasttrack/internal/traffic"
)

// Re-exported vocabulary so callers need only this package.
type (
	// Network is the cycle-accurate NoC interface.
	Network = noc.Network
	// Packet is the unit of transfer.
	Packet = noc.Packet
	// Coord is a torus coordinate.
	Coord = noc.Coord
	// Result is a simulation summary.
	Result = sim.Result
	// Trace is an application communication trace.
	Trace = trace.Trace
	// TraceSource is a replayable trace: an in-memory *Trace or a
	// streaming binary trace.Reader (FTT1 file).
	TraceSource = trace.Source
	// Variant selects the FastTrack router microarchitecture.
	Variant = fasttrack.Variant
	// Device is an FPGA technology model.
	Device = fpga.Device
	// FaultConfig is a deterministic fault-injection schedule.
	FaultConfig = faults.Config
	// RetryConfig tunes the resilient-delivery (retransmission) layer.
	RetryConfig = reliability.Config
	// Observer receives cycle-level telemetry events (internal/telemetry).
	Observer = telemetry.Observer
)

// FastTrack router variants.
const (
	VariantFull   = fasttrack.VariantFull
	VariantInject = fasttrack.VariantInject
)

// Kind selects the network family.
type Kind uint8

// Network families.
const (
	KindHoplite Kind = iota
	KindFastTrack
	KindMultiChannel
)

// Config fully describes a NoC instance.
type Config struct {
	Kind Kind
	// N is the torus width; the NoC is N×N.
	N int
	// D and R parameterize FastTrack (express length, depopulation).
	D, R int
	// Variant selects the FastTrack router microarchitecture.
	Variant Variant
	// Channels is the replication factor for KindMultiChannel.
	Channels int
	// WidthBits is the datapath width used by the FPGA cost/clock/power
	// models (cycle behaviour is width-independent); 0 means 256.
	WidthBits int
	// ExpressPipeline adds register stages to FastTrack express links
	// (§VII Hyperflex discussion): higher clock, longer express latency.
	ExpressPipeline int
}

// Hoplite returns the baseline configuration for an n×n torus.
func Hoplite(n int) Config { return Config{Kind: KindHoplite, N: n} }

// FastTrack returns an FT(n², d, r) configuration with Full routers.
func FastTrack(n, d, r int) Config {
	return Config{Kind: KindFastTrack, N: n, D: d, R: r, Variant: VariantFull}
}

// MultiChannel returns a k-channel Hoplite configuration.
func MultiChannel(n, k int) Config {
	return Config{Kind: KindMultiChannel, N: n, Channels: k}
}

// WithWidth returns a copy of c with the datapath width set.
func (c Config) WithWidth(bits int) Config {
	c.WidthBits = bits
	return c
}

// WithVariant returns a copy of c with the FastTrack router variant set.
func (c Config) WithVariant(v Variant) Config {
	c.Variant = v
	return c
}

// WithPipeline returns a copy of c with extra express-link register stages.
func (c Config) WithPipeline(stages int) Config {
	c.ExpressPipeline = stages
	return c
}

func (c Config) widthBits() int {
	if c.WidthBits == 0 {
		return 256
	}
	return c.WidthBits
}

// String renders the paper's notation for the configuration.
func (c Config) String() string {
	switch c.Kind {
	case KindHoplite:
		return "Hoplite"
	case KindFastTrack:
		s := fmt.Sprintf("FT(%d,%d,%d)", c.N*c.N, c.D, c.R)
		if c.Variant == VariantInject {
			s += "-inject"
		}
		return s
	case KindMultiChannel:
		if c.Channels <= 1 {
			return "Hoplite"
		}
		return fmt.Sprintf("Hoplite-%dx", c.Channels)
	}
	return fmt.Sprintf("Config(kind=%d)", c.Kind)
}

// fastTrack is the fasttrack package's view of a KindFastTrack configuration.
func (c Config) fastTrack() (fasttrack.Config, error) {
	top, err := fasttrack.NewTopology(c.N, c.D, c.R)
	return fasttrack.Config{Topology: top, Variant: c.Variant, ExpressPipeline: c.ExpressPipeline}, err
}

// Build constructs the cycle-accurate network.
func (c Config) Build() (Network, error) {
	switch c.Kind {
	case KindHoplite:
		return hoplite.New(c.N, c.N)
	case KindFastTrack:
		fc, err := c.fastTrack()
		if err != nil {
			return nil, err
		}
		return fasttrack.New(fc)
	case KindMultiChannel:
		return multichannel.New(c.N, c.N, c.Channels)
	}
	return nil, fmt.Errorf("core: unknown network kind %d", c.Kind)
}

// Spec returns the FPGA-model view of the configuration for cost,
// frequency, routability and power queries.
func (c Config) Spec() (fpga.NoCSpec, error) {
	switch c.Kind {
	case KindHoplite:
		return fpga.HopliteSpec(c.N, c.widthBits(), 1), nil
	case KindFastTrack:
		s, err := fpga.FastTrackSpec(c.N, c.D, c.R, c.widthBits(), c.Variant)
		if err == nil {
			s.FT.ExpressPipeline = c.ExpressPipeline
		}
		return s, err
	case KindMultiChannel:
		return fpga.HopliteSpec(c.N, c.widthBits(), c.Channels), nil
	}
	return fpga.NoCSpec{}, fmt.Errorf("core: unknown network kind %d", c.Kind)
}

// Virtex7 returns the paper's target device model.
func Virtex7() *Device { return fpga.Virtex7_485T() }

// SyntheticOptions parameterizes RunSynthetic.
type SyntheticOptions struct {
	// Pattern is a paper label: RANDOM, LOCAL, BITCOMPL, TRANSPOSE (also
	// TORNADO).
	Pattern string
	// Rate is the per-PE injection probability per cycle (0..1].
	Rate float64
	// PacketsPerPE is the per-PE generation quota (paper: 1000).
	PacketsPerPE int
	// Seed fixes the random streams.
	Seed uint64
	// MaxCycles optionally bounds the run.
	MaxCycles int64
	// Faults, when non-nil, wraps the network in the deterministic fault
	// injector (internal/faults).
	Faults *FaultConfig
	// Retry, when non-nil, wraps the workload in the resilient-delivery
	// layer (internal/reliability) so drop faults are recovered by
	// retransmission.
	Retry *RetryConfig
	// CheckConservation enables the engine's per-cycle invariant audit.
	CheckConservation bool
	// MaxPacketAge, when positive, arms the starvation watchdog: fail fast
	// if any packet stays in flight longer than this many cycles.
	MaxPacketAge int64
	// ConvergeWindow and ConvergeTol, when ConvergeWindow is positive, arm
	// the engine's opt-in convergence-based early exit (sim.Options): a
	// saturation run stops once windowed throughput and latency trend are
	// stationary, instead of draining the full packet quota. 0 keeps the
	// fixed-budget path bit-exact.
	ConvergeWindow int64
	ConvergeTol    float64
	// Shards is ignored: every simulation runs on one goroutine. The field
	// exists only because the benchmark's sim.shard2_speedup probe still
	// sets it, and it leaves together with that probe.
	Shards int
	// Observer, when non-nil, receives cycle-level telemetry events; see
	// internal/telemetry for the event vocabulary and ready-made observers
	// (packet tracer, link-utilization counters, windowed metrics).
	Observer Observer
	// Progress, when non-nil, receives the run's live totals (sim.Progress).
	// It changes no Result bit, so it stays out of the cache key.
	Progress *sim.Progress
}

// TraceOptions parameterizes RunTrace.
type TraceOptions struct {
	// MaxCycles optionally bounds the replay; 0 means the engine default.
	MaxCycles int64
	// Observer, when non-nil, receives cycle-level telemetry events.
	Observer Observer
	// Progress, when non-nil, receives the replay's live totals
	// (sim.Progress). It changes no Result bit, so it stays out of the cache
	// key.
	Progress *sim.Progress
	// StreamWindow caps resident events when the source is not an
	// in-memory *Trace (whose events are resident anyway, so it replays
	// with the window off); 0 means trace.DefaultStreamWindow. See
	// trace.StreamOptions.Window for the exactness contract.
	StreamWindow int
}

// RunSynthetic builds cfg's network and drives it with a statistical
// workload, returning the paper's throughput/latency measurements. ctx
// cancels cooperatively: the sweep scheduler (internal/runner) cancels it
// when a sibling job fails and the engine aborts within a few thousand
// cycles. ctx deliberately stays out of SyntheticOptions so cache keys never
// depend on it; pass context.Background() when cancellation is not needed.
func RunSynthetic(ctx context.Context, cfg Config, opts SyntheticOptions) (Result, error) {
	// One context lookup per run: when an ftserve job trace rides the ctx,
	// the engine's wall clock becomes a sim_run span on it. The cycle loop
	// itself stays untouched.
	defer obs.TraceFrom(ctx).Begin("sim_run").Attr("config", cfg.String()).End()
	pat, err := traffic.ByName(opts.Pattern)
	if err != nil {
		return Result{}, err
	}
	net, err := cfg.Build()
	if err != nil {
		return Result{}, err
	}
	if err := traffic.ValidateDims(pat, net.Width(), net.Height()); err != nil {
		return Result{}, err
	}
	if opts.Faults != nil {
		net, err = faults.Wrap(net, *opts.Faults)
		if err != nil {
			return Result{}, err
		}
	}
	var wl sim.Workload = traffic.NewSynthetic(net.Width(), net.Height(), pat, opts.Rate, opts.PacketsPerPE, opts.Seed)
	if opts.Retry != nil {
		wl = reliability.Wrap(wl, net.Width(), *opts.Retry)
	}
	return sim.Run(net, wl, sim.Options{
		MaxCycles:         opts.MaxCycles,
		CheckConservation: opts.CheckConservation,
		MaxPacketAge:      opts.MaxPacketAge,
		Context:           ctx,
		ConvergeWindow:    opts.ConvergeWindow,
		ConvergeTol:       opts.ConvergeTol,
		Observer:          opts.Observer,
		Progress:          opts.Progress,
	})
}

// RunTrace builds cfg's network and replays an application trace with
// dependency-driven injection, returning completion time and latency
// statistics. ctx cancels cooperatively (see RunSynthetic).
//
// src is any trace.Source, and every source replays through the one
// machine, trace.Stream. An in-memory *Trace is replayed with the window off
// (every event resident, StreamWindow ignored); anything else (typically a
// *trace.Reader over an FTT1 file) in O(StreamWindow) memory, so a
// billion-event recorded trace never has to fit in RAM. The two are
// bit-exact whenever the window does not bind (golden-tested).
func RunTrace(ctx context.Context, cfg Config, src TraceSource, opts TraceOptions) (Result, error) {
	defer obs.TraceFrom(ctx).Begin("sim_run").Attr("config", cfg.String()).End()
	net, err := cfg.Build()
	if err != nil {
		return Result{}, err
	}
	var wl *trace.Stream
	if tr, ok := src.(*trace.Trace); ok {
		wl, err = trace.NewWorkload(tr, net.Width(), net.Height())
	} else {
		wl, err = trace.NewStream(src, net.Width(), net.Height(), trace.StreamOptions{Window: opts.StreamWindow})
	}
	if err != nil {
		return Result{}, err
	}
	res, err := sim.Run(net, wl, sim.Options{
		MaxCycles: opts.MaxCycles,
		Context:   ctx,
		Observer:  opts.Observer,
		Progress:  opts.Progress,
	})
	// A failed replay reports Done to stop the engine; surface its error
	// over the (misleadingly clean) partial result.
	if wl.Err() != nil {
		return Result{}, wl.Err()
	}
	return res, err
}
