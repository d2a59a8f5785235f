package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fasttrack/internal/core"
	"fasttrack/internal/obs"
	"fasttrack/internal/runner"
	"fasttrack/internal/sim"
)

// postAndWait submits spec over HTTP, waits for the job to finish and
// returns its final GET /jobs/{id} body.
func postAndWait(t *testing.T, s *Server, ts *httptest.Server, spec string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %s, %v", resp.Status, err)
	}
	if st := waitTerminal(t, s.Job(sub.ID), 10*time.Second); st.State != StateDone {
		t.Fatalf("job %s: %s (%+v)", sub.ID, st.State, st.Error)
	}
	resp, err = http.Get(ts.URL + "/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestDaemonSharesCLICache: a daemon sim job and a CLI run of the same
// configuration (runner.Do under runner.SyntheticKey with no observer, as
// ftexp runs it) answer each other from one cache directory, in both
// directions.
func TestDaemonSharesCLICache(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cache, err := runner.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cli := &runner.Orchestrator{Cache: cache, Workers: 1}
	cfg := core.Hoplite(4)
	spec := func(seed uint64) string {
		return fmt.Sprintf(`{"kind":"sim","topology":{"noc":"hoplite","n":4},
			"workload":{"pattern":"RANDOM","rate":0.1,"packets":20,"seed":%d}}`, seed)
	}
	opts := func(seed uint64) core.SyntheticOptions {
		return core.SyntheticOptions{Pattern: "RANDOM", Rate: 0.1, PacketsPerPE: 20, Seed: seed}
	}
	ctx := context.Background()

	// CLI first, daemon second.
	want, _, err := runner.Do(ctx, cli, runner.SyntheticKey(cfg, opts(71)), func() (core.Result, error) {
		return core.RunSynthetic(ctx, cfg, opts(71))
	})
	if err != nil {
		t.Fatal(err)
	}
	body := postAndWait(t, s, ts, spec(71))
	if !strings.Contains(body, `"cached":true`) {
		t.Fatalf("daemon job missed the CLI's cache entry: %s", body)
	}
	if !strings.Contains(body, fmt.Sprintf(`"delivered":%d`, want.Delivered)) {
		t.Fatalf("daemon result %s, CLI delivered %d", body, want.Delivered)
	}

	// Daemon first, CLI second.
	if body := postAndWait(t, s, ts, spec(72)); strings.Contains(body, `"cached":true`) {
		t.Fatalf("fresh spec answered from the cache: %s", body)
	}
	_, _, err = runner.Do(ctx, cli, runner.SyntheticKey(cfg, opts(72)), func() (core.Result, error) {
		t.Fatal("CLI run missed the daemon's cache entry")
		return core.Result{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMetricsFrameReadsProgress: one sampler tick over a Progress holding
// known totals publishes a metrics frame whose every field is the
// hand-computed value; the first window runs from zero, so it spans the
// totals.
func TestMetricsFrameReadsProgress(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	j := newJob(s, 1, fastSpec(t, 1), "k", obs.NewJobTrace(""), "c1")
	ch := j.subscribe()
	<-ch // the queued status frame

	var p sim.Progress
	p.Cycles.Store(40000)
	p.Injected.Store(5000)
	p.Delivered.Store(4800)
	p.InFlight.Store(200)
	p.LatSum.Store(4800*37 + 12)
	p.P50.Store(30)
	p.P99.Store(90)
	t0 := time.Now().Add(-2 * time.Second)
	p.Start.Store(t0.UnixNano())

	stop := make(chan struct{})
	defer close(stop)
	begin := time.Now()
	go s.sampleMetrics(j, &p, 16, stop)
	var raw []byte
	select {
	case raw = <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("no metrics frame within 5 s")
	}
	end := time.Now()

	data, ok := bytes.CutPrefix(raw, []byte("event: metrics\ndata: "))
	if !ok {
		t.Fatalf("not a metrics frame: %q", raw)
	}
	var f metricsFrame
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	// Cycles per second is 40,000 over the wall clock since Start, which is
	// 2 s plus however long the tick took to arrive.
	slow, fast := 40000/end.Sub(t0).Seconds(), 40000/begin.Add(metricsInterval).Sub(t0).Seconds()
	if f.CyclesPerSec < slow || f.CyclesPerSec > fast {
		t.Fatalf("cycles_per_sec %v outside [%v, %v]", f.CyclesPerSec, slow, fast)
	}
	want := metricsFrame{
		Cycles: 40000, Injected: 5000, Delivered: 4800, InFlight: 200,
		WindowCycles: 40000, WindowDelivered: 4800,
		WindowRate:   0.0075, // 4800 / 40000 / 16
		CyclesPerSec: f.CyclesPerSec,
		MeanLatency:  37.0025, // (4800·37 + 12) / 4800
		P50:          30, P99: 90,
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }
	if !near(f.WindowRate, want.WindowRate) || !near(f.MeanLatency, want.MeanLatency) {
		t.Fatalf("frame %+v, want %+v", f, want)
	}
	f.WindowRate, f.MeanLatency = want.WindowRate, want.MeanLatency
	if f != want {
		t.Fatalf("frame %+v, want %+v", f, want)
	}
}
