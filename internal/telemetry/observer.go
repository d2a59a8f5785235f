// Package telemetry is the cycle-level observability layer for the NoC
// simulator: a small Observer interface invoked from the engine and router
// hot loops, plus concrete observers — a packet-lifecycle tracer (Perfetto
// trace-event output), per-link utilization counters split by wire
// class (local vs express), and windowed time-series metrics whose window
// bookkeeping also drives the engine's convergence detector.
//
// A router reports each of its decisions as one hop event, OnHop with a
// HopKind: a traversal of a local or an express wire, a deflection, or an
// express denial. The router families on the shared fabric kernel emit
// through fabric.Kernel.Hop; LinkStats reduces that stream per router.
// Network-wide totals need no observer: the engine publishes them into a
// sim.Progress, which is what the live /metrics page reads.
//
// The disabled path is a single nil check at every emission site, so a run
// without an observer pays nothing measurable (BenchmarkSimSaturation vs
// BenchmarkSimSaturationNopObserver in the root bench_test.go is the
// comparison). Observer callbacks receive packet pointers to avoid
// copying the 80-byte packet per event; implementations must not retain
// them beyond the call — the pointee is engine- or router-owned memory that
// is mutated or recycled on later cycles.
//
// Routers emit hops at grant time, inside the routing pass, and event
// totals match the network's noc.Counters; the golden tests in internal/sim
// hold an attached no-op observer to bit-exact Results.
package telemetry

import (
	"strings"

	"fasttrack/internal/noc"
)

// HopKind classifies a router event.
type HopKind uint8

// Router event kinds.
const (
	// HopLocal and HopExpress are wire traversals by link class.
	HopLocal HopKind = iota
	HopExpress
	// HopDeflect marks a true deflection (misroute) suffered at a router.
	HopDeflect
	// HopDenied marks an express-resource denial (fallback to a short wire).
	HopDenied
)

var hopKindNames = [...]string{"hop", "xhop", "DEFLECT", "xdenied"}

// String returns the kind's label in flight-recorder reports.
func (k HopKind) String() string { return hopKindNames[k] }

// Observer receives cycle-level simulation events. All methods are invoked
// synchronously from the simulation hot loop; implementations should be
// cheap and must not retain the packet pointers they are handed.
//
// OnHop is the one router event. It carries the index of the router that
// made the decision (y*width + x), the kind, and the port that classifies
// it:
//
//   - HopLocal / HopExpress: port is the granted output (noc.PortESh,
//     PortSSh for local wires; PortEEx, PortSEx for express wires). The
//     buffered mesh, which has no express plane and bidirectional links,
//     maps horizontal moves to PortESh and vertical moves to PortSSh.
//   - HopDeflect: port is the input whose packet was misrouted away from
//     its dimension-ordered path (a true deflection).
//   - HopDenied: port is the input whose packet was denied an express
//     resource and fell back to a short link (the paper's Fig 18b "input
//     deflection"); noc.PortPE marks a denied express injection.
//
// Packet-level events come from the engine and the workload/network
// wrappers: OnInject after an offer is accepted, OnDeliver per delivery,
// OnDrop when a packet is destroyed (fault injection) or abandoned
// (retransmission budget exhausted, internal/reliability). OnCycleEnd fires
// once per completed engine cycle with the current in-flight population.
// Refused offers and retransmits are no events: their totals are
// noc.Counters.InjectionStalls and stats.RecoveryCounts.Retries, and a
// sim.Progress carries both live.
type Observer interface {
	OnInject(now int64, p *noc.Packet)
	OnDeliver(now int64, p *noc.Packet)
	OnHop(now int64, router int, port noc.Port, kind HopKind, p *noc.Packet)
	OnDrop(now int64, p *noc.Packet)
	OnCycleEnd(now int64, inFlight int)
}

// Observable is implemented by networks and workload wrappers that can
// attach an observer. sim.Run discovers it on the network and on the
// workload.
type Observable interface {
	SetObserver(Observer)
}

// Keyer is implemented by observers whose presence must be reflected in
// content-addressed result-cache keys (internal/runner): a cached Result
// would silently skip the observer's side effects, so runs with an observer
// attached must never be answered from entries written without one. The
// string must determine the observer's emission-relevant settings.
type Keyer interface {
	TelemetryKey() string
}

// Key canonicalizes an observer for cache keys: empty for nil (the key stays
// byte-identical to pre-telemetry keys, preserving existing cache entries),
// the Keyer string when implemented, and a generic marker otherwise.
func Key(o Observer) string {
	if o == nil {
		return ""
	}
	if k, ok := o.(Keyer); ok {
		return k.TelemetryKey()
	}
	return "observer"
}

// Base is a no-op Observer. Embed it to implement only the events an
// observer cares about; it is also the canonical no-op observer the golden
// bit-exactness tests attach.
type Base struct{}

func (Base) OnInject(int64, *noc.Packet)                      {}
func (Base) OnDeliver(int64, *noc.Packet)                     {}
func (Base) OnHop(int64, int, noc.Port, HopKind, *noc.Packet) {}
func (Base) OnDrop(int64, *noc.Packet)                        {}
func (Base) OnCycleEnd(int64, int)                            {}

// multi fans events out to several observers in order.
type multi struct {
	obs []Observer
}

// Multi combines observers into one; nil entries are dropped. It returns
// nil for an empty set and the sole observer for a singleton, so callers
// can compose unconditionally without paying fan-out indirection.
func Multi(obs ...Observer) Observer {
	kept := make([]Observer, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &multi{obs: kept}
}

func (m *multi) OnInject(now int64, p *noc.Packet) {
	for _, o := range m.obs {
		o.OnInject(now, p)
	}
}

func (m *multi) OnDeliver(now int64, p *noc.Packet) {
	for _, o := range m.obs {
		o.OnDeliver(now, p)
	}
}

func (m *multi) OnHop(now int64, router int, port noc.Port, kind HopKind, p *noc.Packet) {
	for _, o := range m.obs {
		o.OnHop(now, router, port, kind, p)
	}
}

func (m *multi) OnDrop(now int64, p *noc.Packet) {
	for _, o := range m.obs {
		o.OnDrop(now, p)
	}
}

func (m *multi) OnCycleEnd(now int64, inFlight int) {
	for _, o := range m.obs {
		o.OnCycleEnd(now, inFlight)
	}
}

// TelemetryKey implements Keyer by joining the member keys.
func (m *multi) TelemetryKey() string {
	parts := make([]string, len(m.obs))
	for i, o := range m.obs {
		parts[i] = Key(o)
	}
	return "multi(" + strings.Join(parts, ",") + ")"
}
