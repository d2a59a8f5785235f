package monitor_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/monitor"
	"fasttrack/internal/runner"
	"fasttrack/internal/sim"
)

// scrape fetches path from srv and returns the body.
func scrape(t *testing.T, srv *monitor.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL() + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// parseProm parses Prometheus text exposition into sample name -> value
// (labels kept as part of the name).
func parseProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// TestMetricsEndpointTotals is the end-to-end scrape check: a real run's
// /metrics totals, read from its Progress, must equal the network's own
// counters, and the runner section must reflect the orchestrator.
func TestMetricsEndpointTotals(t *testing.T) {
	prog := new(sim.Progress)
	fr := monitor.NewFlightRecorder(4, 8)
	orch := &runner.Orchestrator{Workers: 2}
	for i := 0; i < 3; i++ {
		if _, _, err := runner.Do(context.Background(), orch, fmt.Sprint(i), func() (int, error) {
			return i, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	opts := runOpts()
	opts.Observer, opts.Progress = fr, prog
	res, err := core.RunSynthetic(context.Background(), core.FastTrack(8, 2, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := monitor.StartServer("127.0.0.1:0", monitor.ServerOptions{
		Progress: prog, Flight: fr, Runner: orch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	m := parseProm(t, scrape(t, srv, "/metrics"))
	c := res.Counters
	var misroutes, denied int64
	for p := range c.MisroutesByInput {
		misroutes += c.MisroutesByInput[p]
		denied += c.ExpressDeniedByInput[p]
	}
	want := map[string]int64{
		"fasttrack_sim_cycles_total":                    res.Cycles,
		"fasttrack_sim_packets_injected_total":          res.Injected,
		"fasttrack_sim_packets_delivered_total":         res.Delivered,
		"fasttrack_sim_packets_offered_total":           res.Injected + c.InjectionStalls,
		"fasttrack_sim_injection_stalls_total":          c.InjectionStalls,
		`fasttrack_sim_hops_total{wire="local"}`:        c.ShortTraversals,
		`fasttrack_sim_hops_total{wire="express"}`:      c.ExpressTraversals,
		"fasttrack_sim_express_denied_total":            denied,
		"fasttrack_sim_packets_in_flight":               0,
		`fasttrack_sim_latency_cycles{quantile="0.5"}`:  res.P50,
		`fasttrack_sim_latency_cycles{quantile="0.99"}`: res.P99,
		"fasttrack_runner_jobs_executed_total":          3,
		"fasttrack_runner_jobs_cached_total":            0,
		"fasttrack_flight_finished_total":               res.Delivered,
	}
	for name, v := range want {
		got, ok := m[name]
		if !ok {
			t.Errorf("sample %s missing from scrape", name)
			continue
		}
		if got != float64(v) {
			t.Errorf("%s = %v, want %d", name, got, v)
		}
	}
	if got := m[`fasttrack_sim_deflections_total{wire="local"}`] + m[`fasttrack_sim_deflections_total{wire="express"}`]; got != float64(misroutes) {
		t.Errorf("deflections = %v, want %d", got, misroutes)
	}
}

// TestServerEndpoints smoke-checks the remaining routes: the / redirect to
// /metrics, the pprof index, expvar, and the flight report (absent and
// present).
func TestServerEndpoints(t *testing.T) {
	srv, err := monitor.StartServer("127.0.0.1:0", monitor.ServerOptions{Progress: new(sim.Progress)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if body := scrape(t, srv, "/"); !strings.Contains(body, "fasttrack_sim_cycles_total") {
		t.Error("/ does not redirect to /metrics")
	}
	if body := scrape(t, srv, "/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(scrape(t, srv, "/debug/vars")), &vars); err != nil {
		t.Errorf("/debug/vars is not JSON: %v", err)
	}
	resp, err := http.Get(srv.URL() + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/flight without a recorder = %s, want 404", resp.Status)
	}

	fr := monitor.NewFlightRecorder(4, 4)
	srv2, err := monitor.StartServer("127.0.0.1:0", monitor.ServerOptions{Flight: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if body := scrape(t, srv2, "/debug/flight?k=3"); !strings.Contains(body, "flight recorder @ cycle") {
		t.Errorf("/debug/flight report malformed:\n%s", body)
	}
}
