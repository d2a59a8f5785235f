package fasttrack

import (
	"sync"

	"fasttrack/internal/noc"
)

// routeTables memoizes the per-packet routing decisions that depend only on
// the topology: the in-flight preference lists (a pure function of the input
// port and the ring offsets to the destination), the injection preference
// lists (a pure function of the ring offsets and the router's express-lane
// class), and the per-router output-exists masks. The tables are built by
// calling the list builders themselves — prefsFor, which the dense reference
// router still runs per packet, and injectPrefs — once per key and replaying
// the stored lists thereafter, so equality with the direct path holds by
// construction (and is additionally asserted exhaustively by TestRouteTables
// and, end to end, by the dense-vs-sparse golden suites).
//
// Every network carries tables: the sparse arbiter has no other path. One
// table set is shared by every instance built with the same (topology,
// variant) key while it stays cached — it is immutable after construction.
type routeTables struct {
	n int

	// in[port][dy*n+dx] is prefsFor(port, dst, x, y) for any router (x, y)
	// with ring offsets (dx, dy) to dst. Indexed by the four in-flight input
	// ports, which are the first four noc.Port values.
	in [4][]prefs

	// inj[class][dy*n+dx] is the injection preference list at a router of
	// the given express-lane class (hx<<1 | hy).
	inj [4][]prefs

	// class[i] is router i's express-lane class; exists[i] its output mask.
	class  []uint8
	exists [][numOuts]bool
}

// tablesKey identifies a shareable table set. ExpressPipeline is excluded:
// preference lists never depend on pipeline depth.
type tablesKey struct {
	n, d, r int
	variant Variant
}

// tablesCacheCap bounds tablesCache: the key is client-controlled through
// ftserve job specs and one N=128 entry is ~5 MB, so an uncapped map lets a
// client pin gigabytes for the life of the daemon. Networks hold their own
// *routeTables, so clearing the map is always safe.
const tablesCacheCap = 32

var (
	tablesMu    sync.Mutex
	tablesCache = map[tablesKey]*routeTables{}
)

// injectPrefs builds the injection preference list for an offer with ring
// offsets (dx, dy) at a router with express-lane availability (hx, hy).
// It is the switch the dense injectAt inlines, with the router coordinate
// dependence reduced to the (hx, hy) class so the list can be memoized;
// injectEligible's coordinate tests collapse the same way (dx > 0 implies the
// X-express test, and the Y test is always taken).
func (nw *Network) injectPrefs(dx, dy int, hx, hy bool) (pr prefs) {
	t := nw.cfg.Topology
	switch {
	case dx == 0 && dy == 0:
		// Self-addressed packet: loops through the exit port.
		pr.add(oSSh, true, false)
	case nw.cfg.Variant == VariantInject:
		eligible := dx%t.D == 0 && dy%t.D == 0 && (dx == 0 || hx) && hy
		if eligible {
			// Lane choice is permanent in the Inject variant: express when
			// the lane is free, else commit to the short lane.
			if dx > 0 {
				pr.add(oEEx, false, false)
				pr.add(oESh, false, false)
			} else {
				pr.add(oSEx, false, false)
				pr.add(oSSh, false, false)
			}
		} else if dx > 0 {
			pr.add(oESh, false, false)
		} else {
			pr.add(oSSh, false, false)
		}
	default: // VariantFull
		if dx > 0 {
			if hx && dx%t.D == 0 {
				pr.add(oEEx, false, false)
			}
			pr.add(oESh, false, false)
		} else {
			if hy && dy%t.D == 0 {
				pr.add(oSEx, false, false)
			}
			pr.add(oSSh, false, false)
		}
	}
	return pr
}

// sharedTables returns the route tables for this network's configuration,
// building them on a cache miss. A full cache is simply cleared: the per-job
// networks of a sweep over one configuration still share one set, and a
// daemon cycling through
// more than tablesCacheCap topologies pays rebuilds, not memory.
func (nw *Network) sharedTables() *routeTables {
	key := tablesKey{n: nw.n, d: nw.cfg.Topology.D, r: nw.cfg.Topology.R, variant: nw.cfg.Variant}
	tablesMu.Lock()
	defer tablesMu.Unlock()
	tb := tablesCache[key]
	if tb == nil {
		if len(tablesCache) >= tablesCacheCap {
			clear(tablesCache)
		}
		tb = nw.buildTables()
		tablesCache[key] = tb
	}
	return tb
}

// buildTables memoizes prefsFor and injectPrefs over their full key spaces.
// prefsFor reads its router coordinate only through the ring offsets, so a
// representative router at (0, 0) with dst (dx, dy) covers every (x, y).
func (nw *Network) buildTables() *routeTables {
	t := nw.cfg.Topology
	n := nw.n
	sz := n * n
	tb := &routeTables{
		n:      n,
		class:  make([]uint8, sz),
		exists: make([][numOuts]bool, sz),
	}
	inPorts := [4]noc.Port{noc.PortWSh, noc.PortWEx, noc.PortNSh, noc.PortNEx}
	for _, port := range inPorts {
		lists := make([]prefs, sz)
		for dy := 0; dy < n; dy++ {
			for dx := 0; dx < n; dx++ {
				lists[dy*n+dx] = nw.prefsFor(port, noc.Coord{X: dx, Y: dy}, 0, 0)
			}
		}
		tb.in[port] = lists
	}
	for class := 0; class < 4; class++ {
		hx, hy := class&2 != 0, class&1 != 0
		lists := make([]prefs, sz)
		for dy := 0; dy < n; dy++ {
			for dx := 0; dx < n; dx++ {
				lists[dy*n+dx] = nw.injectPrefs(dx, dy, hx, hy)
			}
		}
		tb.inj[class] = lists
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			i := y*n + x
			hx, hy := t.HasXExpress(x), t.HasYExpress(y)
			var class uint8
			if hx {
				class |= 2
			}
			if hy {
				class |= 1
			}
			tb.class[i] = class
			tb.exists[i] = [numOuts]bool{
				oESh: true,
				oSSh: true,
				oEEx: hx,
				oSEx: hy,
			}
		}
	}
	return tb
}

// delta returns the eastward/southward ring offset from a to b on an n-ring:
// noc.RingDelta inlined for the two hot table lookups.
func delta(a, b, n int) int {
	d := b - a
	if d < 0 {
		d += n
	}
	return d
}
