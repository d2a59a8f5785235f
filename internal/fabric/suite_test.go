package fabric_test

import (
	"testing"

	"fasttrack/internal/fasttrack"
	"fasttrack/internal/hoplite"
	"fasttrack/internal/noctest"
)

// The kernel is exercised through both router families: each test below runs
// over every row of noctest.Cases.

func TestStandingOffers(t *testing.T) {
	noctest.ForEach(t, "", noctest.StandingOffers)
}

// TestStepAllocs pins the steady state of the hot loop: a warmed, saturated
// Step allocates nothing.
func TestStepAllocs(t *testing.T) {
	top, err := fasttrack.NewTopology(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mk   func() (noctest.Fabric, error)
	}{
		{"hoplite16", func() (noctest.Fabric, error) { return hoplite.New(16, 16) }},
		{"FT(256,2,1)", func() (noctest.Fabric, error) { return fasttrack.New(fasttrack.Config{Topology: top}) }},
	} {
		nw, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		if a := noctest.SaturatedStepAllocs(nw); a != 0 {
			t.Errorf("%s: %v allocs per saturated Step, want 0", tc.name, a)
		}
	}
}
