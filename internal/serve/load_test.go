package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMixedLoad holds the daemon to its accounting under concurrent mixed
// load over HTTP, across a panicking job and a drain:
//
//   - the client-observed 202/200/429/400/503 counts equal /metrics exactly;
//   - every accepted job reaches a terminal, fetchable state: done, except
//     the one that panics, which fails with a structured panic and a stack;
//   - p99 admission latency over every POST stays within 2 s;
//   - duplicate specs dedupe, in flight or through the cache;
//   - after the drain, each job's /debug/trace span durations (dur_ns) sum
//     to the queue_wait, run and job histograms' _count and _sum bit for bit,
//     and the cache holds no partial entry.
//
// Phase 1's 429s do not depend on timing: two blockers hold both workers in
// beforeRun until the test releases them, so a burst is refused exactly past
// the queue bound.
func TestMixedLoad(t *testing.T) {
	const (
		clients, requests = 8, 25
		queue, workers    = 8, 2
		blockSeed         = 90000 // blockSeed+i holds a worker until release closes
		crashSeed         = 99999 // panics inside the job's recovery
		maxP99            = 2 * time.Second
	)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	cacheDir := t.TempDir()
	s := newTestServer(t, Options{QueueDepth: queue, Workers: workers, CacheDir: cacheDir,
		beforeRun: func(j *Job) {
			switch seed := j.Spec.Workload.Seed; {
			case seed == crashSeed:
				panic("TestMixedLoad crashes this job")
			case seed >= blockSeed && seed < blockSeed+workers:
				<-release
			}
		}})
	t.Cleanup(unblock) // before newTestServer's Close: a failed test must not wedge it
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var (
		mu        sync.Mutex
		latencies []time.Duration
		accepted  []string
		codes     = map[int]int{}
	)
	post := func(spec string) (string, int) {
		t0 := time.Now()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
		lat := time.Since(t0)
		if err != nil {
			t.Errorf("POST /jobs: %v", err)
			return "", 0
		}
		defer resp.Body.Close()
		var st Status
		_ = json.NewDecoder(resp.Body).Decode(&st) // only a 202 or a 200 carries an ID
		mu.Lock()
		defer mu.Unlock()
		latencies = append(latencies, lat)
		codes[resp.StatusCode]++
		if resp.StatusCode == http.StatusAccepted {
			accepted = append(accepted, st.ID)
		}
		return st.ID, resp.StatusCode
	}
	settle := func() {
		for _, id := range accepted {
			waitTerminal(t, s.Job(id), 30*time.Second)
		}
	}

	// Phase 1: pin both workers, then overflow the queue with the crashing
	// job and fresh specs.
	for i := uint64(0); i < workers; i++ {
		if _, code := post(fastJSON(blockSeed + i)); code != http.StatusAccepted {
			t.Fatalf("blocker %d: status %d", i, code)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); s.c.running.Load() < workers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("blockers never reached the workers")
		}
	}
	crashID, code := post(fastJSON(crashSeed))
	if code != http.StatusAccepted {
		t.Fatalf("crashing job: status %d", code)
	}
	for i := uint64(0); i < queue+5; i++ {
		post(fastJSON(91000 + i))
	}
	if codes[http.StatusTooManyRequests] != 6 {
		t.Fatalf("burst of %d past a queue of %d: %d answered 429, want 6",
			queue+6, queue, codes[http.StatusTooManyRequests])
	}
	// Let the backlog clear so phase 2 meets the daemon under its own load.
	unblock()
	settle()

	// Phase 2: every client interleaves unique specs, duplicates of one
	// shared spec and malformed documents.
	shared := fastJSON(77777)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				spec, want := fastJSON(uint64(1+c*1000+r)), "202 429"
				switch {
				case r%5 == 4:
					spec, want = `{"kind":"sim","bogus":`, "400"
				case r%3 == 2:
					spec, want = shared, "200 202 429"
				}
				if _, code := post(spec); !strings.Contains(want, strconv.Itoa(code)) {
					t.Errorf("client %d request %d: status %d, want one of %s", c, r, code, want)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	settle()

	// Phase 3: drain with fresh jobs in flight; admission then answers 503.
	for i := uint64(0); i < 4; i++ {
		if _, code := post(fastJSON(60000 + i)); code != http.StatusAccepted {
			t.Fatalf("pre-drain job %d: status %d", i, code)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, code := post(fastJSON(60100)); code != http.StatusServiceUnavailable {
		t.Fatalf("POST after drain: status %d, want 503", code)
	}
	assertNoPartialCacheEntries(t, cacheDir)

	// Zero accepted-job loss: every 202 is terminal and fetchable.
	for _, id := range accepted {
		var st Status
		getJSON(t, ts.URL+"/jobs/"+id, &st)
		switch {
		case id == crashID:
			if st.State != StateFailed || st.Error == nil || st.Error.Kind != "panic" || st.Error.Stack == "" {
				t.Fatalf("crashing job: want failed/panic with a stack, got %s %+v", st.State, st.Error)
			}
		case st.State != StateDone:
			t.Fatalf("job %s: %s %+v", id, st.State, st.Error)
		}
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if p99 := latencies[len(latencies)*99/100]; p99 > maxP99 {
		t.Errorf("p99 admission latency %s exceeds %s", p99, maxP99)
	}

	m := scrapeMetrics(t, ts.URL+"/metrics")
	for name, want := range map[string]int{
		"ftserve_jobs_admitted_total":                   len(accepted),
		"ftserve_jobs_deduped_total":                    codes[http.StatusOK],
		`ftserve_rejected_total{reason="queue_full"}`:   codes[http.StatusTooManyRequests],
		`ftserve_rejected_total{reason="bad_spec"}`:     codes[http.StatusBadRequest],
		`ftserve_rejected_total{reason="draining"}`:     codes[http.StatusServiceUnavailable],
		`ftserve_rejected_total{reason="rate_limited"}`: 0,
		`ftserve_jobs_finished_total{state="done"}`:     len(accepted) - 1,
		`ftserve_jobs_finished_total{state="failed"}`:   1,
		"ftserve_job_panics_total":                      1,
	} {
		if m[name] != float64(want) {
			t.Errorf("%s: daemon says %v, clients observed %d", name, m[name], want)
		}
	}
	if m["ftserve_jobs_deduped_total"]+m["ftserve_cache_hits_total"] == 0 {
		t.Error("duplicate specs produced neither an in-flight dedup nor a cache hit")
	}

	// Each histogram sample is one span's duration, the same int64
	// nanoseconds converted to seconds the same way, so the closed
	// population's counts and sums match exactly.
	type agg struct {
		n  int
		ns int64
	}
	aggs := map[string]*agg{"queue_wait": {}, "run": {}, "job": {}}
	for _, id := range accepted {
		var doc struct {
			TraceEvents []struct {
				Name, Ph string
				Args     struct {
					DurNS int64 `json:"dur_ns"`
				}
			}
		}
		getJSON(t, ts.URL+"/debug/trace/"+id, &doc)
		for _, ev := range doc.TraceEvents {
			if a := aggs[ev.Name]; a != nil && ev.Ph == "X" {
				a.n++
				a.ns += ev.Args.DurNS
			}
		}
	}
	if aggs["job"].n != len(accepted) {
		t.Fatalf("%d accepted jobs but %d job spans", len(accepted), aggs["job"].n)
	}
	for family, span := range map[string]string{
		"ftserve_queue_wait_seconds": "queue_wait",
		"ftserve_run_seconds":        "run",
		"ftserve_job_e2e_seconds":    "job",
	} {
		a := aggs[span]
		if got := m[family+"_count"]; got != float64(a.n) {
			t.Errorf("%s_count: daemon says %v, traces hold %d %s spans", family, got, a.n, span)
		}
		if got, want := m[family+"_sum"], float64(a.ns)/1e9; got != want {
			t.Errorf("%s_sum: daemon says %v, %s spans sum to %v", family, got, span, want)
		}
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// scrapeMetrics parses a Prometheus text exposition into name{labels} →
// value.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}
