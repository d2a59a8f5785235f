package cliflags

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/runner"
)

// TestHTTPRunIsAPlainRun: an ftsim-style run under -http, with its /metrics
// scraped for the whole run, returns the Result of the same run without
// -http (its convergence decision included), keys the result cache the same
// with no telem= field, and ends with /metrics holding the Result's totals.
func TestHTTPRunIsAPlainRun(t *testing.T) {
	ctx := context.Background()
	cfg := core.Hoplite(8)
	opts := core.SyntheticOptions{
		Pattern: "RANDOM", Rate: 1.0, PacketsPerPE: 400, Seed: 7,
		ConvergeWindow: 128, ConvergeTol: 0.02,
	}
	bare, err := core.RunSynthetic(ctx, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bare.Converged {
		t.Fatal("baseline did not converge; pick a workload that exercises the detector")
	}

	ops, err := BuildOps(nil, &Monitor{HTTP: "127.0.0.1:0"}, cfg.N, cfg.N, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	if ops.Observer != nil || ops.Progress == nil {
		t.Fatalf("-http built observer %v, progress %v; want none and one", ops.Observer, ops.Progress)
	}
	watched := opts
	watched.Observer, watched.Progress = ops.Observer, ops.Progress

	url := ops.server.URL() + "/metrics"
	scrape := func() (string, error) {
		resp, err := http.Get(url)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}
	stop, scraped := make(chan struct{}), make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				scraped <- nil
				return
			default:
			}
			if _, err := scrape(); err != nil {
				scraped <- err
				return
			}
		}
	}()
	res, err := core.RunSynthetic(ctx, cfg, watched)
	close(stop)
	if serr := <-scraped; serr != nil {
		t.Fatal(serr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, bare) {
		t.Fatalf("-http run differs from the plain run:\n got %+v\nwant %+v", res, bare)
	}
	if kb, kw := runner.SyntheticKey(cfg, opts), runner.SyntheticKey(cfg, watched); kw != kb || strings.Contains(kw, "telem=") {
		t.Fatalf("-http cache key %q, plain %q", kw, kb)
	}

	body, err := scrape()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("fasttrack_sim_cycles_total %d\n", res.Cycles),
		fmt.Sprintf("fasttrack_sim_packets_delivered_total %d\n", res.Delivered),
		fmt.Sprintf("fasttrack_sim_injection_stalls_total %d\n", res.Counters.InjectionStalls),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("final /metrics lacks %q", want)
		}
	}
}
