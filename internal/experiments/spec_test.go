package experiments

import (
	"context"
	"io"
	"testing"

	"fasttrack/internal/runner"
)

// cachedScale is sc scheduled through an orchestrator over a fresh cache.
func cachedScale(t *testing.T, sc Scale) Scale {
	t.Helper()
	cache, err := runner.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc.Orch = &runner.Orchestrator{Workers: 2, Cache: cache}
	return sc
}

// TestJobListIsKeySet holds every figure that declares a job list to it:
// with the list run into a fresh cache, rendering the figure from that cache
// simulates nothing and hits exactly once per declared key, and no key is
// declared twice. What a figure lists is therefore exactly what it reads.
func TestJobListIsKeySet(t *testing.T) {
	sc := renderScale()
	for _, e := range AllWithExtensions() {
		syn, traces := e.jobList(sc)
		if len(syn)+len(traces) == 0 {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			keys := map[string]bool{}
			for _, j := range syn {
				keys[runner.SyntheticKey(j.Cfg, j.Opts)] = true
			}
			declared := len(syn)
			for _, j := range traces {
				keys[runner.RawKey("tracehdr", j.spec)] = true
				declared += len(traceConfigs(j.n))
			}
			if len(keys) != len(syn)+len(traces) {
				t.Fatalf("%d jobs declare only %d distinct keys", len(syn)+len(traces), len(keys))
			}

			warm := cachedScale(t, sc)
			if _, err := runner.DoSynthetic(context.Background(), warm.Orch, syn); err != nil {
				t.Fatal(err)
			}
			if _, err := runTraceJobs(warm, traces); err != nil {
				t.Fatal(err)
			}
			render := warm
			render.Orch = &runner.Orchestrator{Workers: 2, Cache: warm.Orch.Cache}
			if err := e.Run(io.Discard, render); err != nil {
				t.Fatal(err)
			}
			if executed, hits := render.Orch.Stats(); executed != 0 || hits != int64(declared) {
				t.Errorf("render from the warmed list: %d simulated, %d hits; want 0 and %d", executed, hits, declared)
			}
		})
	}
}

// TestFig17SimulatesEachKeyOnce: at D=1, R=1 and R=D name one simulation. A
// cold render runs it once and still renders both rows.
func TestFig17SimulatesEachKeyOnce(t *testing.T) {
	sc := cachedScale(t, renderScale())
	keys := map[string]bool{}
	for _, j := range Fig17.Jobs(sc) {
		keys[runner.SyntheticKey(j.Cfg, j.Opts)] = true
	}
	if err := Fig17.Run(io.Discard, sc); err != nil {
		t.Fatal(err)
	}
	if executed, _ := sc.Orch.Stats(); executed != int64(len(keys)) {
		t.Errorf("cold render simulated %d times for %d distinct keys", executed, len(keys))
	}
	pts, err := Fig17.Rows(sc)
	if err != nil {
		t.Fatal(err)
	}
	d1 := map[int][]Fig17Point{}
	for _, p := range pts {
		if p.D == 1 {
			d1[p.PEs] = append(d1[p.PEs], p)
		}
	}
	for _, pes := range []int{16, 64} {
		r := d1[pes]
		if len(r) != 2 || r[0].RExtreme || !r[1].RExtreme || r[0].SustainedRate != r[1].SustainedRate {
			t.Errorf("%d PEs, D=1: rows %+v, want R=1 then R=D with one rate", pes, r)
		}
	}
}
