package fasttrack

import (
	"fmt"
	"reflect"
	"testing"

	"fasttrack/internal/noc"
)

// TestRouteTablesMatchUntabled exhaustively checks the memoized route tables
// against the list builders the dense reference path calls, at every router
// and for every destination offset — the tables claim prefsFor depends on its
// router coordinate only through the ring offsets, and this is where that
// claim is proven rather than assumed.
func TestRouteTablesMatchUntabled(t *testing.T) {
	cases := []struct {
		n, d, r int
		v       Variant
	}{
		{8, 2, 1, VariantFull},
		{8, 2, 2, VariantFull},
		{8, 4, 2, VariantFull},
		{8, 2, 1, VariantInject},
		{8, 2, 2, VariantInject},
	}
	inPorts := [4]noc.Port{noc.PortWSh, noc.PortWEx, noc.PortNSh, noc.PortNEx}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n%d_d%d_r%d_v%d", tc.n, tc.d, tc.r, tc.v), func(t *testing.T) {
			top, err := NewTopology(tc.n, tc.d, tc.r)
			if err != nil {
				t.Fatal(err)
			}
			nw, err := New(Config{Topology: top, Variant: tc.v})
			if err != nil {
				t.Fatal(err)
			}
			tb := nw.tabs
			if tb == nil {
				t.Fatal("New left tabs nil")
			}
			n := tc.n
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					i := y*n + x
					hx, hy := top.HasXExpress(x), top.HasYExpress(y)
					wantExists := [numOuts]bool{oESh: true, oSSh: true, oEEx: hx, oSEx: hy}
					if tb.exists[i] != wantExists {
						t.Fatalf("router (%d,%d): exists=%v want %v", x, y, tb.exists[i], wantExists)
					}
					wantClass := uint8(0)
					if hx {
						wantClass |= 2
					}
					if hy {
						wantClass |= 1
					}
					if tb.class[i] != wantClass {
						t.Fatalf("router (%d,%d): class=%d want %d", x, y, tb.class[i], wantClass)
					}
					for dy := 0; dy < n; dy++ {
						for dx := 0; dx < n; dx++ {
							dst := noc.Coord{X: (x + dx) % n, Y: (y + dy) % n}
							for _, port := range inPorts {
								got := tb.in[port][dy*n+dx]
								want := nw.prefsFor(port, dst, x, y)
								if got != want {
									t.Fatalf("router (%d,%d) port %v dst %v: table prefs %+v want %+v",
										x, y, port, dst, got, want)
								}
							}
							got := tb.inj[tb.class[i]][dy*n+dx]
							want := nw.injectPrefs(dx, dy, hx, hy)
							if got != want {
								t.Fatalf("router (%d,%d) dst %v: inject prefs %+v want %+v",
									x, y, dst, got, want)
							}
							if tc.v == VariantInject {
								// injectPrefs folds injectEligible's coordinate
								// tests into the (hx, hy) class; check against
								// the original predicate directly.
								elig := nw.cfg.injectEligible(top, x, y, dx, dy)
								folded := dx%top.D == 0 && dy%top.D == 0 && (dx == 0 || hx) && hy
								if elig != folded {
									t.Fatalf("router (%d,%d) dx=%d dy=%d: injectEligible=%v folded=%v",
										x, y, dx, dy, elig, folded)
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestTablesSharedAcrossNetworks checks that the per-job networks of one
// configuration, as a sweep builds them, reference one immutable table set.
func TestTablesSharedAcrossNetworks(t *testing.T) {
	top, err := NewTopology(8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var first *routeTables
	for i := 0; i < 4; i++ {
		nw, err := New(Config{Topology: top, Variant: VariantFull})
		if err != nil {
			t.Fatal(err)
		}
		if nw.tabs == nil {
			t.Fatal("network has no tables")
		}
		if i == 0 {
			first = nw.tabs
		} else if nw.tabs != first {
			t.Fatalf("network %d has its own table set", i)
		}
	}
}

// TestTablesCacheBounded walks more distinct topologies than the cache holds:
// the process-global map must stay within its cap (the key is
// client-controlled through ftserve), evicted networks keep working tables,
// and an evicted-then-rebuilt set equals the original.
func TestTablesCacheBounded(t *testing.T) {
	build := func(n, d int) *Network {
		t.Helper()
		top, err := NewTopology(n, d, 1)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := New(Config{Topology: top, Variant: VariantFull})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}
	first := build(8, 2)
	distinct := 0
	for n := 4; distinct <= tablesCacheCap; n++ {
		for d := 1; d < n && distinct <= tablesCacheCap; d++ {
			if _, err := NewTopology(n, d, 1); err != nil {
				continue
			}
			build(n, d)
			distinct++
			tablesMu.Lock()
			size := len(tablesCache)
			tablesMu.Unlock()
			if size > tablesCacheCap {
				t.Fatalf("after %d topologies the cache holds %d entries, cap is %d", distinct, size, tablesCacheCap)
			}
		}
	}
	rebuilt := build(8, 2)
	if rebuilt.tabs == first.tabs {
		t.Fatal("walking more than the cap of topologies never evicted the first entry")
	}
	if !reflect.DeepEqual(rebuilt.tabs, first.tabs) {
		t.Fatal("rebuilt table set differs from the evicted original")
	}
}
