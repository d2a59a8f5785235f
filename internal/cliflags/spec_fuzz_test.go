package cliflags

import (
	"strings"
	"testing"
)

// FuzzDecodeJobSpec: arbitrary bytes must never panic the decoder, and any
// spec it accepts must be inside the admission bounds and buildable — the
// "never an admitted garbage job" property the daemon's 400 path relies on.
func FuzzDecodeJobSpec(f *testing.F) {
	seeds := []string{
		`{"kind":"sim"}`,
		`{"kind":"sweep","rates":[0.1,0.5,1.0]}`,
		`{"kind":"dse","topology":{"noc":"ft","n":4}}`, // a removed kind: rejected
		`{"kind":"sim","topology":{"noc":"hoplite","n":16},"workload":{"pattern":"TRANSPOSE","rate":0.3,"packets":500,"seed":7}}`,
		`{"kind":"sim","faults":{"faults":0.01,"misroute":0.001,"faultseed":3,"retry":64}}`,
		`{"kind":"sim","max_cycles":1000,"converge_window":64,"converge_tol":0.05,"check":true,"watchdog":4096}`,
		`{"kind":"sim","timeout_ms":100,"debug_panic":true}`,
		`{"kind":"sweep","rates":[]}`,
		`{"kind":"sim","workload":{"rate":1e308}}`,
		`{"kind":"sim","topology":{"n":-3}}`,
		`{"kind":"sim",`,
		`[1,2,3]`,
		`null`,
		`"sim"`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		s, err := DecodeJobSpec(strings.NewReader(doc))
		if err != nil {
			// Every rejection must carry the structured form the HTTP layer
			// serializes.
			if se := AsSpecError(err); se.Msg == "" {
				t.Fatalf("rejection without a message: %v", err)
			}
			return
		}
		// Accepted specs are normalized, bounded, and buildable.
		if s.Topology == nil || s.Workload == nil {
			t.Fatal("accepted spec not normalized")
		}
		if s.Topology.N < 2 || s.Topology.N > MaxSpecN {
			t.Fatalf("accepted out-of-bounds torus width %d", s.Topology.N)
		}
		if s.Workload.PacketsPerPE < 1 || s.Workload.PacketsPerPE > MaxSpecPackets {
			t.Fatalf("accepted out-of-bounds quota %d", s.Workload.PacketsPerPE)
		}
		rate := s.Workload.Rate
		if len(s.Rates) > 0 {
			rate = s.Rates[0]
		}
		if _, _, err := s.SimConfig(rate); err != nil {
			t.Fatalf("accepted spec fails to build: %v", err)
		}
		if _, err := s.CanonicalKey(); err != nil {
			t.Fatalf("accepted spec has no canonical key: %v", err)
		}
	})
}
