package core

import (
	"context"
	"strings"
	"testing"

	"fasttrack/internal/matrixgen"
	"fasttrack/internal/workloads/dataflow"
)

func TestConfigStrings(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Hoplite(8), "Hoplite"},
		{FastTrack(8, 2, 1), "FT(64,2,1)"},
		{FastTrack(4, 2, 2).WithVariant(VariantInject), "FT(16,2,2)-inject"},
		{MultiChannel(8, 3), "Hoplite-3x"},
		{MultiChannel(8, 1), "Hoplite"},
	}
	for _, c := range cases {
		if got := c.cfg.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestBuildAllKinds(t *testing.T) {
	for _, cfg := range []Config{
		Hoplite(4), FastTrack(4, 2, 1), FastTrack(8, 2, 2),
		FastTrack(8, 2, 1).WithVariant(VariantInject), MultiChannel(4, 2),
	} {
		net, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if net.NumPEs() != cfg.N*cfg.N {
			t.Errorf("%s: %d PEs", cfg, net.NumPEs())
		}
	}
	if _, err := FastTrack(8, 7, 1).Build(); err == nil {
		t.Error("invalid D should fail to build")
	}
	if _, err := (Config{Kind: Kind(99), N: 4}).Build(); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestSpecConsistency(t *testing.T) {
	dev := Virtex7()
	for _, cfg := range []Config{Hoplite(8), FastTrack(8, 2, 1), MultiChannel(8, 3)} {
		spec, err := cfg.Spec()
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		l, f := spec.Resources()
		if l <= 0 || f <= 0 {
			t.Errorf("%s: zero resources", cfg)
		}
		if mhz := spec.ClockMHz(dev); mhz <= 0 || mhz > dev.ClockCeilingMHz {
			t.Errorf("%s: clock %v", cfg, mhz)
		}
	}
	// Iso-wiring pairs must agree on wire factor.
	ft1, _ := FastTrack(8, 2, 1).Spec()
	h3, _ := MultiChannel(8, 3).Spec()
	if ft1.WireFactor() != h3.WireFactor() {
		t.Errorf("FT(64,2,1) wire factor %d != Hoplite-3x %d", ft1.WireFactor(), h3.WireFactor())
	}
}

func TestRunSynthetic(t *testing.T) {
	res, err := RunSynthetic(context.Background(), FastTrack(4, 2, 1), SyntheticOptions{
		Pattern: "RANDOM", Rate: 0.3, PacketsPerPE: 50, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 16*50 {
		t.Errorf("delivered %d", res.Delivered)
	}
	if _, err := RunSynthetic(context.Background(), Hoplite(4), SyntheticOptions{Pattern: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown pattern") {
		t.Errorf("bad pattern error = %v", err)
	}
	// Dimension-constrained patterns are validated against the built
	// network: BITCOMPL is undefined on a 6×6 torus.
	if _, err := RunSynthetic(context.Background(), Hoplite(6), SyntheticOptions{
		Pattern: "BITCOMPL", Rate: 0.3, PacketsPerPE: 10, Seed: 1,
	}); err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Errorf("BITCOMPL on 6x6 error = %v", err)
	}
}

func TestRunTrace(t *testing.T) {
	m := matrixgen.Circuit("t", 200, 5, 1)
	tr, err := dataflow.Trace(m, 4, 4, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hop, err := RunTrace(context.Background(), Hoplite(4), tr, TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := RunTrace(context.Background(), FastTrack(4, 2, 1), tr, TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if hop.Cycles <= 0 || ft.Cycles <= 0 {
		t.Fatal("zero completion time")
	}
	if ft.Cycles > hop.Cycles {
		t.Errorf("FastTrack (%d cycles) should not lose to Hoplite (%d) on a dataflow trace",
			ft.Cycles, hop.Cycles)
	}
}

func TestConfigEdgeCases(t *testing.T) {
	if s := (Config{Kind: Kind(42)}).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown kind string %q", s)
	}
	if _, err := (Config{Kind: Kind(42), N: 4}).Spec(); err == nil {
		t.Error("Spec on unknown kind should fail")
	}
	// Default width is 256 bits.
	spec, err := Hoplite(8).Spec()
	if err != nil {
		t.Fatal(err)
	}
	ref := fpgaLUTs(t, Hoplite(8).WithWidth(256))
	got, _ := spec.Resources()
	if got != ref {
		t.Errorf("default width resources %d != explicit 256b %d", got, ref)
	}
	// Pipeline validation propagates from the fasttrack config.
	if _, err := FastTrack(8, 2, 1).WithPipeline(99).Build(); err == nil {
		t.Error("absurd pipeline depth should be rejected")
	}
}

func fpgaLUTs(t *testing.T, cfg Config) int {
	t.Helper()
	s, err := cfg.Spec()
	if err != nil {
		t.Fatal(err)
	}
	l, _ := s.Resources()
	return l
}

func TestRunTraceGeometryMismatch(t *testing.T) {
	m := matrixgen.Circuit("t", 100, 4, 1)
	tr, err := dataflow.Trace(m, 4, 4, dataflow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTrace(context.Background(), Hoplite(8), tr, TraceOptions{}); err == nil {
		t.Error("16-PE trace on a 64-PE network should fail")
	}
}
