package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"
	"sync/atomic"

	"fasttrack/internal/noc"
)

// link classes within a router's output set, in noc.Port order from
// noc.PortESh. Express entries stay zero on networks without an express
// plane (Hoplite, the buffered mesh).
const (
	linkESh = iota // east local wire
	linkEEx        // east express wire
	linkSSh        // south local wire
	linkSEx        // south express wire
	numLinkClasses
)

var linkClassDir = [numLinkClasses]string{"E", "E", "S", "S"}
var linkClassName = [numLinkClasses]string{"local", "express", "local", "express"}

// HopCounts reduces the hop stream to one block of counters per router:
// traversals of each of the four wires leaving it, deflections split by the
// wire class of the deflected input, and express denials. LinkStats and the
// monitor's Collector are both this block. Every counter is an atomic, so
// another goroutine may read a block while the simulation writes it, and
// concurrent runs may share one HopCounts.
type HopCounts struct {
	w, h int
	rows []hopBlock
}

type hopBlock struct {
	hops                         [numLinkClasses]atomic.Int64
	deflectLocal, deflectExpress atomic.Int64
	denied                       atomic.Int64
}

// HopRow is one router's counters, each loaded atomically.
type HopRow struct {
	// Hops counts traversals of the wires leaving the router: east local,
	// east express, south local, south express.
	Hops [numLinkClasses]int64
	// DeflectLocal and DeflectExpress count deflections by the wire class of
	// the deflected input; Denied counts express denials.
	DeflectLocal, DeflectExpress, Denied int64
}

// Local returns the router's local-wire traversals.
func (r HopRow) Local() int64 { return r.Hops[linkESh] + r.Hops[linkSSh] }

// Express returns the router's express-wire traversals.
func (r HopRow) Express() int64 { return r.Hops[linkEEx] + r.Hops[linkSEx] }

// NewHopCounts returns zeroed counters for a w×h network (dimensions below 1
// are raised to 1).
func NewHopCounts(w, h int) *HopCounts {
	w, h = max(w, 1), max(h, 1)
	return &HopCounts{w: w, h: h, rows: make([]hopBlock, w*h)}
}

// Dims returns the network dimensions the counters were built for.
func (c *HopCounts) Dims() (w, h int) { return c.w, c.h }

// Count records one hop event (Observer.OnHop's arguments). Events at a
// router outside the network, and traversals of a port that is no output
// wire, are ignored.
func (c *HopCounts) Count(router int, port noc.Port, kind HopKind) {
	if router < 0 || router >= len(c.rows) {
		return
	}
	b := &c.rows[router]
	switch kind {
	case HopLocal, HopExpress:
		if port >= noc.PortESh && port <= noc.PortSEx {
			b.hops[port-noc.PortESh].Add(1)
		}
	case HopDeflect:
		if port.IsExpress() {
			b.deflectExpress.Add(1)
		} else {
			b.deflectLocal.Add(1)
		}
	case HopDenied:
		b.denied.Add(1)
	}
}

// Router returns router i's counters.
func (c *HopCounts) Router(i int) HopRow {
	b := &c.rows[i]
	r := HopRow{
		DeflectLocal:   b.deflectLocal.Load(),
		DeflectExpress: b.deflectExpress.Load(),
		Denied:         b.denied.Load(),
	}
	for k := range r.Hops {
		r.Hops[k] = b.hops[k].Load()
	}
	return r
}

// LinkStats is an Observer that keeps HopCounts and writes them as CSV: the
// heatmap-ready utilization table behind the paper's express-wire-usage
// argument, one row per (router, direction, class) with hops and
// hops/cycle.
//
// On multi-channel Hoplite all K channels share one geometry, so counts
// aggregate per geometric link across channels.
type LinkStats struct {
	Base
	counts *HopCounts
	cycles int64
}

// NewLinkStats returns a LinkStats observer for a w×h network.
func NewLinkStats(w, h int) *LinkStats { return &LinkStats{counts: NewHopCounts(w, h)} }

// OnHop implements Observer.
func (l *LinkStats) OnHop(now int64, router int, port noc.Port, kind HopKind, p *noc.Packet) {
	l.counts.Count(router, port, kind)
}

// OnCycleEnd implements Observer.
func (l *LinkStats) OnCycleEnd(now int64, inFlight int) { l.cycles++ }

// Cycles returns the observed cycle count.
func (l *LinkStats) Cycles() int64 { return l.cycles }

// Totals returns network-wide hop counts by wire class.
func (l *LinkStats) Totals() (local, express int64) {
	for i := range l.counts.rows {
		r := l.counts.Router(i)
		local += r.Local()
		express += r.Express()
	}
	return local, express
}

// WriteCSV emits one row per (router, direction, wire class): coordinates,
// the class, the absolute hop count, utilization (hops per observed cycle),
// and the router's deflection/express-denial counts (repeated on each of
// the router's rows for self-contained plotting).
func (l *LinkStats) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"x", "y", "dir", "class", "hops", "utilization", "deflections", "express_denied",
	}); err != nil {
		return err
	}
	for i := range l.counts.rows {
		r := l.counts.Router(i)
		x, y := i%l.counts.w, i/l.counts.w
		for c, hops := range r.Hops {
			util := 0.0
			if l.cycles > 0 {
				util = float64(hops) / float64(l.cycles)
			}
			if err := cw.Write([]string{
				fmt.Sprint(x), fmt.Sprint(y),
				linkClassDir[c], linkClassName[c],
				fmt.Sprint(hops), fmt.Sprintf("%.6f", util),
				fmt.Sprint(r.DeflectLocal + r.DeflectExpress), fmt.Sprint(r.Denied),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// TelemetryKey implements Keyer.
func (l *LinkStats) TelemetryKey() string { return "linkstats" }
