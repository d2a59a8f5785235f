package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestRegistryMatchesManifest holds the program's workload and metric
// registry and BENCHMARK.json to the same names, units, directions and
// bounds, in the same order.
func TestRegistryMatchesManifest(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the registry %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q / %q, the registry %q / %q",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the registry %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json says %s [%s] %s, the registry %s [%s] %s",
					kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the registry's %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q [%q]: name or unit outside the allowed characters", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is registered twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmokeRuns runs every workload at smoke scale, untraced and traced, and
// checks that each prints every metric of its kind exactly once with its
// unit, that the two runs agree on the digest, that the result line has
// exactly the contract's keys, and that nothing outlives a run.
func TestSmokeRuns(t *testing.T) {
	dir, err := outDir()
	if err != nil {
		t.Fatal(err)
	}
	goroutines := runtime.NumGoroutine()
	for _, w := range workloads {
		var digests []string
		for _, traced := range []bool{false, true} {
			opt := options{seed: 3, seconds: 0, traced: traced, smoke: true, outDir: dir}
			res, err := runWorkload(w, opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d failed %d: %v", w.Name, traced, res.Attempted, res.Failed, res.Notes)
			}
			digests = append(digests, res.Digest)

			var human bytes.Buffer
			res.print(&human)
			want := endToEnd
			if traced {
				want = append(append([]metricDef(nil), endToEnd...), perLayer...)
			}
			for _, d := range want {
				line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.Name) + ` +\S+ ` + regexp.QuoteMeta(d.Unit) + `$`)
				if n := len(line.FindAllString(human.String(), -1)); n != 1 {
					t.Errorf("%s traced=%v: metric %s [%s] printed %d times, want once", w.Name, traced, d.Name, d.Unit, n)
				}
			}

			var last bytes.Buffer
			if err := res.printResultLine(&last); err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(&last)
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Fatalf("%s traced=%v: result line: %v", w.Name, traced, err)
			}
			kind := endToEnd
			if traced {
				kind = perLayer
			}
			if len(line.Metrics) != len(kind) {
				t.Errorf("%s traced=%v: result line has %d metrics, want %d", w.Name, traced, len(line.Metrics), len(kind))
			}
			for _, d := range kind {
				if m, ok := line.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: result line lacks %s [%s]", w.Name, traced, d.Name, d.Unit)
				} else if !traced && *m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s reads %v, must never be 0", w.Name, d.Name, *m.Value)
				}
			}
			if traced {
				if b, err := os.ReadFile(filepath.Join(dir, w.Name+".trace.json")); err != nil {
					t.Error(err)
				} else if !json.Valid(b) {
					t.Errorf("%s: trace file is not valid JSON", w.Name)
				}
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: two smoke runs at one seed gave digests %s and %s", w.Name, digests[0], digests[1])
		}
	}

	if left, _ := filepath.Glob(filepath.Join(dir, "tmp-*")); len(left) > 0 {
		t.Errorf("scratch directories outlive their runs: %v", left)
	}
	// Listener, daemon workers and client connections are goroutines; all
	// must be gone (connection teardown finishes asynchronously).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines outlive the runs (started with %d):\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q2, q3 = quartiles([]float64{40, 10, 20})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles = %v %v %v, want 10 20 40", q1, q2, q3)
	}
}

// TestCompareVerdicts drives compare over synthetic result sets.
func TestCompareVerdicts(t *testing.T) {
	set := func(wall ...float64) resultSet {
		s := resultSet{Provenance: provenance{GoVersion: "go", Procs: 2, Scale: "full", Seconds: 12, Seed: 1}}
		for _, v := range wall {
			r := &runResult{Workload: "engine-sat", Attempted: 8, Correct: true}
			for _, d := range endToEnd {
				m := metricValue{Name: d.Name, Unit: d.Unit, Value: 1}
				if d.Name == "wall_s" {
					m.Value = v
				}
				r.Metrics = append(r.Metrics, m)
			}
			s.Runs = append(s.Runs, r)
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s resultSet) string {
		path := filepath.Join(dir, name)
		if err := writeSet(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var bound float64 // of wall_s, for which lower is better
	for _, d := range endToEnd {
		if d.Name == "wall_s" {
			bound = d.Bound
		}
	}
	base := write("base.json", set(1.00, 1.01, 0.99))
	for _, c := range []struct {
		name    string
		other   resultSet
		verdict string
		status  int
	}{
		{"same", set(1.01, 1.00, 1.02), "same", 0},
		{"worse", set(1+2*bound, 1.01+2*bound, 0.99+2*bound), "worse", 1},
		{"better", set(0.80, 0.81, 0.79), "better", 0},
		{"noisy", set(1-2*bound, 1.00, 1+2*bound), "unresolved", 0},
	} {
		var out bytes.Buffer
		status := compareMain([]string{base, write(c.name+".json", c.other)}, &out)
		row := regexp.MustCompile(`(?m)^engine-sat +wall_s .* (\w+)$`).FindStringSubmatch(out.String())
		if row == nil || row[1] != c.verdict || status != c.status {
			t.Errorf("%s: verdict %v status %d, want %s and %d\n%s", c.name, row, status, c.verdict, c.status, out.String())
		}
	}

	failing := set(1.00, 1.01, 0.99)
	failing.Runs[0].Failed = 8
	var out bytes.Buffer
	if status := compareMain([]string{base, write("failing.json", failing)}, &out); status != 1 {
		t.Errorf("a higher failed share must exit non-zero\n%s", out.String())
	}

	other := set(1.00, 1.01, 0.99)
	other.Provenance.GoVersion = "go-other"
	path := write("other.json", other)
	out.Reset()
	if status := compareMain([]string{base, path}, &out); status != 1 || !strings.Contains(out.String(), "go_version") {
		t.Errorf("differing provenance must be refused with the reason, got status %d\n%s", status, out.String())
	}
	out.Reset()
	if status := compareMain([]string{"-force", base, path}, &out); status != 0 {
		t.Errorf("-force must compare across provenance, got status %d\n%s", status, out.String())
	}
}
