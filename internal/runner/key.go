package runner

import (
	"fmt"
	"strings"

	"fasttrack/internal/core"
	"fasttrack/internal/sim"
	"fasttrack/internal/telemetry"
	"fasttrack/internal/trace"
)

// Cache keys are canonical strings, not hashes of in-memory structs: every
// field that can change a simulation bit is spelled out by name, so adding a
// field to an options struct forces a conscious decision here, and a key is
// readable when debugging a cache directory. All keys embed sim.Version —
// the engine tag part of the cache-key contract (DESIGN.md §9).

// ConfigKey canonicalizes the cycle-behaviour-relevant part of a NoC
// configuration. WidthBits is deliberately excluded: the datapath width only
// feeds the FPGA cost/clock/power models, never the cycle simulation.
func ConfigKey(cfg core.Config) string {
	return fmt.Sprintf("kind=%d n=%d d=%d r=%d var=%d chan=%d pipe=%d",
		cfg.Kind, cfg.N, cfg.D, cfg.R, cfg.Variant, cfg.Channels, cfg.ExpressPipeline)
}

// SyntheticKey is the cache key for core.RunSynthetic(ctx, cfg, o).
//
// Observer presence is keyed (append-only, so pre-telemetry entries stay
// valid): a cached Result would silently skip the observer's side effects,
// so observed runs never share entries with unobserved ones.
func SyntheticKey(cfg core.Config, o core.SyntheticOptions) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|synthetic|%s|", sim.Version, ConfigKey(cfg))
	fmt.Fprintf(&b, "pat=%s rate=%v quota=%d seed=%d maxcyc=%d check=%v age=%d conv=%d/%v",
		o.Pattern, o.Rate, o.PacketsPerPE, o.Seed, o.MaxCycles,
		o.CheckConservation, o.MaxPacketAge, o.ConvergeWindow, o.ConvergeTol)
	if o.Faults != nil {
		fmt.Fprintf(&b, " faults=%+v", *o.Faults)
	}
	if o.Retry != nil {
		fmt.Fprintf(&b, " retry=%+v", *o.Retry)
	}
	if o.Observer != nil {
		fmt.Fprintf(&b, " telem=%s", telemetry.Key(o.Observer))
	}
	return b.String()
}

// TraceKey is the cache key for core.RunTrace(ctx, cfg, src, o): the trace
// enters by content fingerprint, so regenerating an identical trace — or
// replaying its FTT1 recording, whose header carries the same fingerprint
// the streaming Writer computed — reuses the entry. Observer follows the
// SyntheticKey rule (keyed append-only), and MaxCycles enters only when set
// so pre-TraceOptions entries stay valid.
//
// StreamWindow enters only when set: an explicitly bounded window may bind
// and shift injection timing (see trace.StreamOptions.Window), so those
// runs never share entries with default-window or in-memory replays.
//
// Known limit: a default-window replay and the in-memory (window-off) replay
// of the same fingerprint share one entry, which is exact only while
// hdr.Events ≤ trace.DefaultStreamWindow — then the default window cannot
// bind. That holds for every trace this repository generates (the largest,
// lu/bomhof3_10656 at 16×16, has 172,775 events); a longer recorded trace
// whose default window does bind would collide with its in-memory twin.
func TraceKey(cfg core.Config, src trace.Source, o core.TraceOptions) string {
	return TraceHeaderKey(cfg, src.Header(), o)
}

// TraceHeaderKey is TraceKey for a trace known only by its header: all a sweep
// holds when a `tracehdr` memo (DESIGN.md §9) saved it generating the trace.
func TraceHeaderKey(cfg core.Config, hdr trace.Header, o core.TraceOptions) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|trace|%s|name=%s pes=%d events=%d fp=%016x",
		sim.Version, ConfigKey(cfg), hdr.Name, hdr.PEs, hdr.Events, hdr.Fingerprint)
	if o.MaxCycles != 0 {
		fmt.Fprintf(&b, " maxcyc=%d", o.MaxCycles)
	}
	if o.Observer != nil {
		fmt.Fprintf(&b, " telem=%s", telemetry.Key(o.Observer))
	}
	if o.StreamWindow != 0 {
		fmt.Fprintf(&b, " window=%d", o.StreamWindow)
	}
	return b.String()
}

// RawKey builds a key for bespoke simulations (buffered mesh, message
// streams) from caller-supplied parts; sim.Version is prefixed
// automatically. Parts must jointly determine the run.
func RawKey(parts ...any) string {
	var b strings.Builder
	b.WriteString(sim.Version)
	for _, p := range parts {
		fmt.Fprintf(&b, "|%v", p)
	}
	return b.String()
}
