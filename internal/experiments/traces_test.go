package experiments

import (
	"os"
	"reflect"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/runner"
	"fasttrack/internal/trace"
	"fasttrack/internal/workloads/overlay"
)

// countedSource counts Header calls on the way to the generated trace. Not
// being a *trace.Trace it replays through trace.Stream, whose constructor
// takes the header once per replay; everything beyond that is runTraceJob's.
type countedSource struct {
	trace.Source
	headers *int
}

func (c countedSource) Header() trace.Header {
	*c.headers++
	return c.Source.Header()
}

// TestWarmSweepGeneratesNothing drives runTraceJobs with counting generators
// over one cache: a trace is generated exactly when one of its replays has
// to run, its header is taken once, and a wrong memo costs one regeneration.
// A job the cache holds completely is answered without a ForEach job, and
// every replay answered from the cache counts as exactly one hit.
func TestWarmSweepGeneratesNothing(t *testing.T) {
	const n, active, seed = 4, 8, 1
	benches := overlay.Benchmarks()[:3]
	replays := len(traceConfigs(n))
	gens, headers := make([]int, len(benches)), make([]int, len(benches))
	jobs := make([]traceJob, len(benches))
	for i, b := range benches {
		jobs[i] = traceJob{n: n, pes: active, spec: overlay.Spec(b, n, n, active, seed), gen: func() (trace.Source, error) {
			gens[i]++
			tr, err := overlay.Trace(b, n, n, active, seed)
			return countedSource{tr, &headers[i]}, err
		}}
	}
	// pass runs the jobs and checks the per-job generation counts and the
	// simulations executed; wantGens[i] generations imply wantGens[i]
	// Header passes by runTraceJob plus one per executed replay.
	pass := func(name string, orch *runner.Orchestrator, jobs []traceJob, wantGens []int, wantExecuted int) []SpeedupPoint {
		t.Helper()
		clear(gens)
		clear(headers)
		pts, err := runTraceJobs(Scale{Seed: seed, Orch: orch}, jobs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(gens, wantGens) {
			t.Errorf("%s: gen calls per job %v, want %v", name, gens, wantGens)
		}
		executed := 0
		if orch != nil {
			ex, _ := orch.Stats()
			executed = int(ex)
			if executed != wantExecuted {
				t.Errorf("%s: %d simulations executed, want %d", name, executed, wantExecuted)
			}
		} else {
			executed = wantExecuted
		}
		own := -executed
		for _, h := range headers {
			own += h
		}
		wantOwn := 0
		for _, g := range wantGens {
			wantOwn += g
		}
		if own != wantOwn {
			t.Errorf("%s: runTraceJob took %d headers for %d generated traces, want one each", name, own, wantOwn)
		}
		return pts
	}
	cache, err := runner.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cached := func() *runner.Orchestrator { return &runner.Orchestrator{Workers: 2, Cache: cache} }

	// traced records one span per ForEach job; scheduled checks a pass's
	// ForEach jobs and cache hits.
	traced := func() *runner.Orchestrator {
		o := cached()
		o.Spans = runner.NewSpanLog()
		return o
	}
	scheduled := func(name string, o *runner.Orchestrator, wantJobs, wantHits int) {
		t.Helper()
		if _, hits := o.Stats(); len(o.Spans.Spans()) != wantJobs || hits != int64(wantHits) {
			t.Errorf("%s: %d ForEach jobs and %d hits, want %d and %d", name, len(o.Spans.Spans()), hits, wantJobs, wantHits)
		}
	}

	coldOrch := traced()
	cold := pass("cold", coldOrch, jobs, []int{1, 1, 1}, len(jobs)*replays)
	scheduled("cold", coldOrch, len(jobs), 0)
	warmOrch := traced()
	if warm := pass("warm", warmOrch, jobs, []int{0, 0, 0}, 0); !reflect.DeepEqual(warm, cold) {
		t.Errorf("warm points differ from cold:\n%+v\n%+v", warm, cold)
	}
	scheduled("warm", warmOrch, 0, len(jobs)*replays)

	// One result entry lost: only that job's trace comes back, once.
	tr, err := overlay.Trace(benches[1], n, n, active, seed)
	if err != nil {
		t.Fatal(err)
	}
	hdr := tr.Header()
	if err := os.Remove(cache.Path(runner.TraceHeaderKey(core.Hoplite(n), hdr, core.TraceOptions{}))); err != nil {
		t.Fatal(err)
	}
	partial := traced()
	if pts := pass("one entry deleted", partial, jobs, []int{0, 1, 0}, 1); !reflect.DeepEqual(pts, cold) {
		t.Errorf("points changed after an entry was re-simulated:\n%+v\n%+v", pts, cold)
	}
	scheduled("one entry deleted", partial, 1, len(jobs)*replays-1)

	// A memo that names some other trace: its replays miss, the generated
	// trace exposes it, the true header's entries then hit (nothing runs).
	memoKey := runner.RawKey("tracehdr", jobs[1].spec)
	if err := cache.Put(memoKey, trace.Header{Name: "overlay/planted", PEs: hdr.PEs, Events: hdr.Events, Fingerprint: hdr.Fingerprint + 1}); err != nil {
		t.Fatal(err)
	}
	if pts := pass("planted memo", cached(), jobs, []int{0, 1, 0}, 0); !reflect.DeepEqual(pts, cold) {
		t.Errorf("points changed under a planted memo:\n%+v\n%+v", pts, cold)
	}
	var memo trace.Header
	if !cache.Get(memoKey, &memo) || memo != hdr {
		t.Errorf("planted memo was not overwritten with the true header: %+v", memo)
	}

	// No memo to consult: generate first, as before this file had one.
	unkeyed := append([]traceJob(nil), jobs...)
	for i := range unkeyed {
		unkeyed[i].spec = ""
	}
	for name, run := range map[string]struct {
		orch     *runner.Orchestrator
		jobs     []traceJob
		executed int
	}{
		"Orch == nil":   {nil, jobs, len(jobs) * replays},
		"no cache":      {&runner.Orchestrator{Workers: 2}, jobs, len(jobs) * replays},
		"no spec, warm": {cached(), unkeyed, 0},
	} {
		if pts := pass(name, run.orch, run.jobs, []int{1, 1, 1}, run.executed); !reflect.DeepEqual(pts, cold) {
			t.Errorf("%s: points differ from the cached sweep:\n%+v\n%+v", name, pts, cold)
		}
	}
}
