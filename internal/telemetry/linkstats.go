package telemetry

import (
	"encoding/csv"
	"fmt"
	"io"

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

// LinkStats is an Observer that reduces the hop stream to one row of
// counters per router and writes them as CSV: the heatmap-ready utilization
// table behind the paper's express-wire-usage argument, one row per
// (router, direction, class) with hops and hops/cycle.
//
// On multi-channel Hoplite all K channels share one geometry, so counts
// aggregate per geometric link across channels.
type LinkStats struct {
	Base
	w      int
	rows   []linkRow
	cycles int64
}

// linkRow is one router's counters: traversals of the four wires leaving it
// (east local, east express, south local, south express), deflections and
// express denials.
type linkRow struct {
	hops                [numLinkClasses]int64
	deflections, denied int64
}

// NewLinkStats returns a LinkStats observer for a w×h network (dimensions
// below 1 are raised to 1).
func NewLinkStats(w, h int) *LinkStats {
	w, h = max(w, 1), max(h, 1)
	return &LinkStats{w: w, rows: make([]linkRow, w*h)}
}

// OnHop implements Observer. Events at a router outside the network, and
// traversals of a port that is no output wire, are ignored.
func (l *LinkStats) OnHop(now int64, router int, port noc.Port, kind HopKind, p *noc.Packet) {
	if router < 0 || router >= len(l.rows) {
		return
	}
	r := &l.rows[router]
	switch kind {
	case HopLocal, HopExpress:
		if port >= noc.PortESh && port <= noc.PortSEx {
			r.hops[port-noc.PortESh]++
		}
	case HopDeflect:
		r.deflections++
	case HopDenied:
		r.denied++
	}
}

// OnCycleEnd implements Observer.
func (l *LinkStats) OnCycleEnd(now int64, inFlight int) { l.cycles++ }

// Cycles returns the observed cycle count.
func (l *LinkStats) Cycles() int64 { return l.cycles }

// Totals returns network-wide hop counts by wire class.
func (l *LinkStats) Totals() (local, express int64) {
	for _, r := range l.rows {
		local += r.hops[linkESh] + r.hops[linkSSh]
		express += r.hops[linkEEx] + r.hops[linkSEx]
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
	for i, r := range l.rows {
		x, y := i%l.w, i/l.w
		for c, hops := range r.hops {
			util := 0.0
			if l.cycles > 0 {
				util = float64(hops) / float64(l.cycles)
			}
			if err := cw.Write([]string{
				fmt.Sprint(x), fmt.Sprint(y),
				linkClassDir[c], linkClassName[c],
				fmt.Sprint(hops), fmt.Sprintf("%.6f", util),
				fmt.Sprint(r.deflections), fmt.Sprint(r.denied),
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
