// Runtime invariant checking. The engine's original contract — a network
// that loses a packet is a bug, not a statistic — was enforced only once at
// end of run. This file promotes it to a continuous audit: per-cycle packet
// conservation, per-delivery identity checks (no duplicate, phantom,
// corrupted or misdelivered packets), and a starvation watchdog that bounds
// the age of any in-flight packet. Failures surface as *InvariantError with
// a diagnostic snapshot of the oldest in-flight packets, so a broken router
// is reported at the cycle it misbehaves instead of after the cycle limit.
package sim

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"fasttrack/internal/noc"
	"fasttrack/internal/stats"
)

// Sentinel categories for invariant failures; match with errors.Is.
var (
	// ErrStalled fires when no packet is injected or delivered for
	// Options.StallLimit cycles while work remains (livelock tripwire).
	ErrStalled = errors.New("sim: no forward progress (possible livelock)")
	// ErrConservation fires when injected != delivered + lost + in-flight.
	ErrConservation = errors.New("sim: packet conservation violated")
	// ErrDuplicate fires when a packet is delivered twice.
	ErrDuplicate = errors.New("sim: duplicate delivery")
	// ErrMisdelivered fires when a delivered packet's destination does not
	// match its injected copy (address corruption / wrong-node exit).
	ErrMisdelivered = errors.New("sim: packet misdelivered")
	// ErrCorrupt fires when a delivered packet's identity fields disagree
	// with its injected copy, or when a network emits a packet it was never
	// given.
	ErrCorrupt = errors.New("sim: delivered packet does not match any injected packet")
	// ErrStarvation fires when an in-flight packet exceeds
	// Options.MaxPacketAge cycles without being delivered.
	ErrStarvation = errors.New("sim: in-flight packet exceeded age bound")
)

// SnapshotPacket is one in-flight packet captured in a diagnostic snapshot.
type SnapshotPacket struct {
	ID       int64
	Src, Dst noc.Coord
	// Gen and Inject are the packet's generation and injection cycles; Age
	// is cycles spent in the network at the time of the snapshot.
	Gen, Inject, Age int64
	Deflections      int32
}

// InvariantError reports a violated runtime invariant. Err is one of the
// sentinel categories above (errors.Is works through it); Snapshot holds the
// oldest in-flight packets at the failing cycle when tracking was enabled.
type InvariantError struct {
	Err      error
	Cycle    int64
	Detail   string
	Snapshot []SnapshotPacket
}

// Error renders the category, detail, cycle, and snapshot.
func (e *InvariantError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: %s (cycle %d)", e.Err, e.Detail, e.Cycle)
	for _, s := range e.Snapshot {
		fmt.Fprintf(&b, "\n  in-flight packet %d %s->%s age %d (gen %d, injected %d, %d deflections)",
			s.ID, s.Src, s.Dst, s.Age, s.Gen, s.Inject, s.Deflections)
	}
	return b.String()
}

// Unwrap exposes the sentinel category to errors.Is/As.
func (e *InvariantError) Unwrap() error { return e.Err }

// FaultyNetwork is implemented by fault-injecting network wrappers
// (internal/faults). The engine uses it to keep conservation auditing honest
// under injected loss: FaultCounts().Lost() joins the conservation equation
// and DrainLost evicts destroyed packets from in-flight tracking so the
// watchdog does not report them as starving.
type FaultyNetwork interface {
	noc.Network
	FaultCounts() stats.FaultCounts
	// DrainLost returns the IDs of packets destroyed by faults since the
	// last call.
	DrainLost() []int64
}

// RecoveryReporter is implemented by workload wrappers that retransmit lost
// packets (internal/reliability); Run surfaces the counts in Result.
type RecoveryReporter interface {
	RecoveryCounts() stats.RecoveryCounts
}

// watchdogPeriod is how often (in cycles) the age watchdog scans the
// in-flight set; a full scan every cycle would be O(in-flight) per cycle for
// no extra precision beyond the period.
const watchdogPeriod = 16

// snapshotLimit caps the diagnostic snapshot size.
const snapshotLimit = 12

// tracked is the engine-side record of one in-flight packet.
type tracked struct {
	p      noc.Packet
	inject int64
}

// auditor maintains the in-flight packet set and runs the per-cycle checks.
// A nil *auditor disables all checking at zero cost.
type auditor struct {
	conserve bool
	maxAge   int64
	faulty   FaultyNetwork // nil when the network injects no faults

	inflight  map[int64]tracked
	delivered map[int64]struct{} // only populated when conserve
}

// newAuditor returns nil when no per-cycle checking is requested.
func newAuditor(net noc.Network, opts Options) *auditor {
	fn, _ := net.(FaultyNetwork)
	if !opts.CheckConservation && opts.MaxPacketAge <= 0 && fn == nil {
		return nil
	}
	a := &auditor{
		conserve: opts.CheckConservation,
		maxAge:   opts.MaxPacketAge,
		faulty:   fn,
		inflight: make(map[int64]tracked),
	}
	if a.conserve {
		a.delivered = make(map[int64]struct{})
	}
	return a
}

// lost returns the cumulative fault-destroyed packet count.
func (a *auditor) lost() int64 {
	if a.faulty == nil {
		return 0
	}
	return a.faulty.FaultCounts().Lost()
}

// onInject records an accepted injection.
func (a *auditor) onInject(p noc.Packet, now int64) {
	a.inflight[p.ID] = tracked{p: p, inject: now}
}

// onDeliver validates one delivery against its injected copy.
func (a *auditor) onDeliver(p noc.Packet, now int64) error {
	tr, ok := a.inflight[p.ID]
	if !ok {
		if !a.conserve {
			return nil // watchdog-only mode does not keep delivered IDs
		}
		cat, what := ErrCorrupt, "was never injected"
		if _, dup := a.delivered[p.ID]; dup {
			cat, what = ErrDuplicate, "was already delivered"
		}
		return &InvariantError{
			Err: cat, Cycle: now,
			Detail:   fmt.Sprintf("delivered packet %d (%s->%s) %s", p.ID, p.Src, p.Dst, what),
			Snapshot: a.snapshot(now),
		}
	}
	if a.conserve {
		if p.Dst != tr.p.Dst {
			return &InvariantError{
				Err: ErrMisdelivered, Cycle: now,
				Detail: fmt.Sprintf("packet %d injected for %s but delivered with destination %s",
					p.ID, tr.p.Dst, p.Dst),
				Snapshot: a.snapshot(now),
			}
		}
		if p.Src != tr.p.Src || p.Gen != tr.p.Gen {
			return &InvariantError{
				Err: ErrCorrupt, Cycle: now,
				Detail: fmt.Sprintf("packet %d header corrupted in flight (src %s->%s, gen %d->%d)",
					p.ID, tr.p.Src, p.Src, tr.p.Gen, p.Gen),
				Snapshot: a.snapshot(now),
			}
		}
		a.delivered[p.ID] = struct{}{}
	}
	delete(a.inflight, p.ID)
	return nil
}

// endOfCycle drains fault-destroyed packets, audits conservation, and runs
// the age watchdog. injected/delivered are the engine's cumulative counts.
func (a *auditor) endOfCycle(net noc.Network, now, injected, delivered int64) error {
	if a.faulty != nil {
		for _, id := range a.faulty.DrainLost() {
			delete(a.inflight, id)
		}
	}
	if a.conserve {
		inFlight := int64(net.InFlight())
		if injected != delivered+a.lost()+inFlight {
			return &InvariantError{
				Err: ErrConservation, Cycle: now,
				Detail: fmt.Sprintf("injected %d != delivered %d + lost %d + in-flight %d",
					injected, delivered, a.lost(), inFlight),
				Snapshot: a.snapshot(now),
			}
		}
	}
	if a.maxAge > 0 && now%watchdogPeriod == 0 {
		for _, tr := range a.inflight {
			if now-tr.inject > a.maxAge {
				return &InvariantError{
					Err: ErrStarvation, Cycle: now,
					Detail: fmt.Sprintf("packet %d (%s->%s) in flight for %d cycles (bound %d)",
						tr.p.ID, tr.p.Src, tr.p.Dst, now-tr.inject, a.maxAge),
					Snapshot: a.snapshot(now),
				}
			}
		}
	}
	return nil
}

// snapshot captures the oldest in-flight packets, oldest first.
func (a *auditor) snapshot(now int64) []SnapshotPacket {
	if a == nil {
		return nil
	}
	out := make([]SnapshotPacket, 0, len(a.inflight))
	for _, tr := range a.inflight {
		out = append(out, SnapshotPacket{
			ID: tr.p.ID, Src: tr.p.Src, Dst: tr.p.Dst,
			Gen: tr.p.Gen, Inject: tr.inject, Age: now - tr.inject,
			Deflections: tr.p.Deflections,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Inject != out[j].Inject {
			return out[i].Inject < out[j].Inject
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > snapshotLimit {
		out = out[:snapshotLimit]
	}
	return out
}
