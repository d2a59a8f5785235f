package fasttrack

import (
	"fmt"
	"testing"

	"fasttrack/internal/noc"
)

// TestRouteTablesMatchUntabled exhaustively checks the memoized route tables
// against the functions the untabled per-job path calls, at every router and
// for every destination offset — the tables claim prefsFor depends on its
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
			nw.enableTables()
			tb := nw.tabs
			if tb == nil {
				t.Fatal("enableTables left tabs nil")
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

// TestTablesSharedAcrossBatch checks every instance of a batch references
// one immutable table set.
func TestTablesSharedAcrossBatch(t *testing.T) {
	top, err := NewTopology(8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(Config{Topology: top, Variant: VariantFull}, 4)
	if err != nil {
		t.Fatal(err)
	}
	first := b.Instance(0).(*Network).tabs
	if first == nil {
		t.Fatal("batch instance has no tables")
	}
	for i := 1; i < b.Size(); i++ {
		if b.Instance(i).(*Network).tabs != first {
			t.Fatalf("instance %d has its own table set", i)
		}
	}
	if nw, err := New(Config{Topology: top, Variant: VariantFull}); err != nil || nw.tabs != nil {
		t.Fatalf("per-job network should run untabled (tabs=%v err=%v)", nw.tabs, err)
	}
}
