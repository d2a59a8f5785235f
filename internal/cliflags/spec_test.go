package cliflags

import (
	"errors"
	"flag"
	"reflect"
	"strings"
	"testing"

	"fasttrack/internal/core"
)

func decode(t *testing.T, js string) (*JobSpec, error) {
	t.Helper()
	return DecodeJobSpec(strings.NewReader(js))
}

// TestDecodeJobSpecDefaults: a minimal sim spec decodes with the flag-group
// defaults filled in, matching what the equivalent bare CLI invocation runs.
func TestDecodeJobSpecDefaults(t *testing.T) {
	s, err := decode(t, `{"kind":"sim"}`)
	if err != nil {
		t.Fatal(err)
	}
	def := TopologyDefaults()
	if *s.Topology != def {
		t.Fatalf("topology defaults: want %+v, got %+v", def, *s.Topology)
	}
	wdef := WorkloadDefaults()
	if *s.Workload != wdef {
		t.Fatalf("workload defaults: want %+v, got %+v", wdef, *s.Workload)
	}
	cfg, opts, err := s.SimConfig(s.Workload.Rate)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.String() != "FT(64,2,1)" {
		t.Fatalf("default config: got %s", cfg)
	}
	if opts.Rate != 0.5 || opts.PacketsPerPE != 1000 || opts.Seed != 1 {
		t.Fatalf("default options wrong: %+v", opts)
	}

	// A faults group without faultseed runs the schedule `-faults 0.02`
	// runs, whose -faultseed defaults to 1.
	s, err = decode(t, `{"kind":"sim","faults":{"faults":0.02}}`)
	if err != nil {
		t.Fatal(err)
	}
	_, opts, err = s.SimConfig(s.Workload.Rate)
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("ftsim", flag.ContinueOnError)
	work := RegisterWorkload(fs, WorkloadDefaults())
	flt := RegisterFaults(fs)
	if err := fs.Parse([]string{"-faults", "0.02"}); err != nil {
		t.Fatal(err)
	}
	var cli core.SyntheticOptions
	work.Apply(&cli)
	flt.Apply(&cli)
	if !reflect.DeepEqual(opts, cli) {
		t.Fatalf("spec and flags disagree:\nspec %+v faults %+v\nflag %+v faults %+v", opts, opts.Faults, cli, cli.Faults)
	}
}

// TestDecodeJobSpecFull: every field round-trips with the flag spellings.
func TestDecodeJobSpecFull(t *testing.T) {
	s, err := decode(t, `{
		"kind": "sweep",
		"topology": {"noc":"hoplite","n":16},
		"workload": {"pattern":"TRANSPOSE","rate":0.3,"packets":500,"seed":7},
		"faults":   {"faults":0.01,"retry":64},
		"rates":    [0.1, 0.2, 0.4],
		"max_cycles": 100000,
		"timeout_ms": 2000
	}`)
	if err != nil {
		t.Fatal(err)
	}
	cfg, opts, err := s.SimConfig(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.String() != "Hoplite" || opts.Rate != 0.2 || opts.Seed != 7 {
		t.Fatalf("conversion wrong: %s %+v", cfg, opts)
	}
	if opts.Faults == nil || opts.Faults.DropRate != 0.01 {
		t.Fatalf("faults not applied: %+v", opts.Faults)
	}
	if opts.Retry == nil || opts.Retry.Timeout != 64 {
		t.Fatalf("retry not applied: %+v", opts.Retry)
	}
	if s.Timeout().Milliseconds() != 2000 {
		t.Fatalf("timeout: got %v", s.Timeout())
	}
}

// TestDecodeJobSpecRejections: each malformed class yields a *SpecError, so
// the daemon can always answer with a structured 400.
func TestDecodeJobSpecRejections(t *testing.T) {
	cases := []struct {
		name, js, wantField string
	}{
		{"not json", `{"kind":`, ""},
		{"trailing garbage", `{"kind":"sim"} {"kind":"sim"}`, ""},
		{"unknown field", `{"kind":"sim","bogus":1}`, ""},
		{"missing kind", `{}`, "kind"},
		{"bad kind", `{"kind":"mine-bitcoin"}`, "kind"},
		{"bad pattern", `{"kind":"sim","workload":{"pattern":"CHAOS","rate":0.5,"packets":10}}`, "workload.pattern"},
		{"rate zero", `{"kind":"sim","workload":{"pattern":"RANDOM","rate":0,"packets":10}}`, "workload.rate"},
		{"rate above one", `{"kind":"sim","workload":{"pattern":"RANDOM","rate":1.5,"packets":10}}`, "workload.rate"},
		{"giant torus", `{"kind":"sim","topology":{"noc":"hoplite","n":100000}}`, "topology.n"},
		{"giant quota", `{"kind":"sim","workload":{"pattern":"RANDOM","rate":0.5,"packets":2000000}}`, "workload.packets"},
		{"bad noc kind", `{"kind":"sim","topology":{"noc":"hypercube","n":8}}`, "topology"},
		{"sweep without rates", `{"kind":"sweep"}`, "rates"},
		{"sweep bad rate", `{"kind":"sweep","rates":[0.5,2.0]}`, "rates"},
		{"rates on sim", `{"kind":"sim","rates":[0.5]}`, "rates"},
		{"negative timeout", `{"kind":"sim","timeout_ms":-5}`, "timeout_ms"},
		{"fault rate above one", `{"kind":"sim","faults":{"faults":1.5}}`, "faults"},
		{"dse kind", `{"kind":"dse","topology":{"noc":"ft","n":4}}`, "kind"},
		{"max_channels field", `{"kind":"sim","max_channels":3}`, ""},
		{"variants field", `{"kind":"sim","variants":true}`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := decode(t, c.js)
			if err == nil {
				t.Fatalf("want rejection for %s", c.js)
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("want *SpecError, got %T: %v", err, err)
			}
			if se.Field != c.wantField {
				t.Fatalf("want field %q, got %q (%v)", c.wantField, se.Field, err)
			}
		})
	}
}

// TestDecodeJobSpecRejectsShards: "shards" is not a spec field, so a spec
// carrying it gets a structured 400 naming it instead of running with the
// field silently ignored.
func TestDecodeJobSpecRejectsShards(t *testing.T) {
	_, err := decode(t, `{"kind":"sim","shards":2}`)
	var se *SpecError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, `"shards"`) {
		t.Fatalf("want a *SpecError naming shards, got %v", err)
	}
}

// TestCanonicalKeyIdentity: two specs that differ only in JSON field order
// or whitespace share a canonical key; materially different specs do not.
func TestCanonicalKeyIdentity(t *testing.T) {
	a, err := decode(t, `{"workload":{"packets":100,"pattern":"RANDOM","rate":0.5},"kind":"sim"}`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := decode(t, `{"kind":"sim", "workload":{"pattern":"RANDOM", "rate":0.5, "packets":100}}`)
	if err != nil {
		t.Fatal(err)
	}
	ka, _ := a.CanonicalKey()
	kb, _ := b.CanonicalKey()
	if ka != kb {
		t.Fatalf("equivalent specs must share a key:\n%s\n%s", ka, kb)
	}
	c, err := decode(t, `{"kind":"sim","workload":{"pattern":"RANDOM","rate":0.5,"packets":101}}`)
	if err != nil {
		t.Fatal(err)
	}
	kc, _ := c.CanonicalKey()
	if ka == kc {
		t.Fatal("different specs must not collide")
	}
}

// TestDecodeJobSpecSizeLimit: a document over MaxSpecBytes is refused.
func TestDecodeJobSpecSizeLimit(t *testing.T) {
	big := `{"kind":"sim","workload":{"pattern":"RANDOM","rate":0.5,"packets":10,"seed":1}` +
		strings.Repeat(" ", MaxSpecBytes) + `}`
	if _, err := decode(t, big); err == nil {
		t.Fatal("oversized spec must be rejected")
	}
}
