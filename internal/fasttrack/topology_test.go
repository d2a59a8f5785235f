package fasttrack

import "testing"

func TestNewTopologyValidation(t *testing.T) {
	cases := []struct {
		n, d, r int
		ok      bool
	}{
		{8, 2, 1, true},
		{8, 2, 2, true},
		{8, 4, 2, true},
		{8, 4, 4, true},
		{8, 3, 1, true},  // D need not divide N
		{8, 1, 1, true},  // degenerate: express = parallel channel
		{8, 4, 3, false}, // R must divide D
		{8, 5, 1, false}, // D > N/2
		{8, 0, 1, false},
		{8, 2, 0, false},
		{8, 2, 3, false}, // R > D
		{1, 1, 1, false}, // N too small
	}
	for _, c := range cases {
		_, err := NewTopology(c.n, c.d, c.r)
		if (err == nil) != c.ok {
			t.Errorf("NewTopology(%d,%d,%d): err=%v, want ok=%v", c.n, c.d, c.r, err, c.ok)
		}
	}
}

func TestRouterClasses(t *testing.T) {
	// FT(16,2,1): fully populated, all black (paper Fig 7a).
	top, err := NewTopology(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	black, grey, white := routerCounts(top)
	if black != 16 || grey != 0 || white != 0 {
		t.Errorf("FT(16,2,1) classes = %d/%d/%d, want 16/0/0", black, grey, white)
	}

	// FT(16,2,2): depopulated checkerboard (paper Fig 7b): black at
	// (even,even), grey where exactly one coordinate is even, white at
	// (odd,odd) — 4 black, 8 grey, 4 white.
	top, err = NewTopology(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	black, grey, white = routerCounts(top)
	if black != 4 || grey != 8 || white != 4 {
		t.Errorf("FT(16,2,2) classes = %d/%d/%d, want 4/8/4", black, grey, white)
	}
	if got := top.ClassAt(0, 0); got != ClassBlack {
		t.Errorf("(0,0) class = %v, want black", got)
	}
	if got := top.ClassAt(1, 0); got != ClassGreyY {
		t.Errorf("(1,0) class = %v, want grey-y", got)
	}
	if got := top.ClassAt(0, 1); got != ClassGreyX {
		t.Errorf("(0,1) class = %v, want grey-x", got)
	}
	if got := top.ClassAt(1, 1); got != ClassWhite {
		t.Errorf("(1,1) class = %v, want white", got)
	}
}

func TestWireFactor(t *testing.T) {
	cases := []struct {
		d, r, want int
	}{
		{2, 1, 3}, // iso-wiring with Hoplite-3x
		{2, 2, 2}, // iso-wiring with Hoplite-2x
		{4, 1, 5},
		{4, 2, 3},
		{4, 4, 2},
	}
	for _, c := range cases {
		top, err := NewTopology(8, c.d, c.r)
		if err != nil {
			t.Fatal(err)
		}
		if got := top.WireFactor(); got != c.want {
			t.Errorf("FT(64,%d,%d) wire factor = %d, want %d", c.d, c.r, got, c.want)
		}
	}
}

func TestInjectVariantRequiresDividingD(t *testing.T) {
	top, err := NewTopology(8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topology: top, Variant: VariantInject}
	if err := cfg.Validate(); err == nil {
		t.Error("Inject variant with D=3, N=8 should be rejected")
	}
	if _, err := New(cfg); err == nil {
		t.Error("New should propagate the validation error")
	}
	cfg.Variant = VariantFull
	if err := cfg.Validate(); err != nil {
		t.Errorf("Full variant with D=3, N=8 should be accepted: %v", err)
	}
}

// TestExpressPortConsistency checks every express link lands on a router
// that has the matching express input — the braiding must close for all
// legal (N, D, R), which is why R | N is required.
func TestExpressPortConsistency(t *testing.T) {
	check := func(n, d, r int) bool {
		top, err := NewTopology(n, d, r)
		if err != nil {
			return true // invalid parameters are out of scope here
		}
		for x := 0; x < n; x++ {
			if top.HasXExpress(x) && !top.HasXExpress((x+d)%n) {
				return false
			}
		}
		return true
	}
	for n := 2; n <= 24; n++ {
		for d := 1; d <= n/2; d++ {
			for r := 1; r <= d; r++ {
				if !check(n, d, r) {
					t.Errorf("express braid does not close for N=%d D=%d R=%d", n, d, r)
				}
			}
		}
	}
}

func TestTopologyString(t *testing.T) {
	top, err := NewTopology(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := top.String(); got != "FT(64,2,1)" {
		t.Errorf("String() = %q, want FT(64,2,1)", got)
	}
}

// routerCounts returns how many routers of each class top instantiates.
func routerCounts(t Topology) (black, grey, white int) {
	for y := 0; y < t.N; y++ {
		for x := 0; x < t.N; x++ {
			switch t.ClassAt(x, y) {
			case ClassBlack:
				black++
			case ClassGreyX, ClassGreyY:
				grey++
			default:
				white++
			}
		}
	}
	return black, grey, white
}
