package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fasttrack/internal/cliflags"
)

// newTestServer builds a daemon over a throwaway cache dir.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.CacheDir == "" {
		opts.CacheDir = t.TempDir()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// fastJSON is a sim spec that finishes in well under a second; seed varies
// it so tests don't collide through the shared cache semantics.
func fastJSON(seed uint64) string {
	return fmt.Sprintf(`{"kind":"sim","topology":{"noc":"hoplite","n":4},
		"workload":{"pattern":"RANDOM","rate":0.1,"packets":20,"seed":%d}}`, seed)
}

func fastSpec(t *testing.T, seed uint64) *cliflags.JobSpec {
	t.Helper()
	return decodeSpec(t, fastJSON(seed))
}

// slowSpec is heavy enough to stay running while a test arranges the rest
// of its scenario.
func slowSpec(t *testing.T, seed uint64) *cliflags.JobSpec {
	t.Helper()
	return decodeSpec(t, fmt.Sprintf(
		`{"kind":"sim","topology":{"noc":"hoplite","n":16},
		  "workload":{"pattern":"RANDOM","rate":1.0,"packets":100000,"seed":%d}}`, seed))
}

func decodeSpec(t *testing.T, js string) *cliflags.JobSpec {
	t.Helper()
	s, err := cliflags.DecodeJobSpec(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitTerminal(t *testing.T, j *Job, timeout time.Duration) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(timeout):
		t.Fatalf("job %s stuck in state %s", j.ID, j.State())
	}
	return j.Status()
}

// TestSubmitRunFetch: the happy path — a spec goes in, a result comes out.
func TestSubmitRunFetch(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	j, dedup, rej := s.Admit(fastSpec(t, 1), "c1", "")
	if rej != nil || dedup {
		t.Fatalf("admission failed: dedup=%v rej=%v", dedup, rej)
	}
	st := waitTerminal(t, j, 10*time.Second)
	if st.State != StateDone {
		t.Fatalf("want done, got %s (%+v)", st.State, st.Error)
	}
	sum, ok := st.Result.(ResultSummary)
	if !ok {
		t.Fatalf("want ResultSummary, got %T", st.Result)
	}
	if sum.Delivered == 0 || sum.Cycles == 0 {
		t.Fatalf("empty result: %+v", sum)
	}
}

// TestInFlightDedup: an identical POST while the first copy is still queued
// joins it instead of running twice.
func TestInFlightDedup(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 8})
	// Occupy the single worker so the next admissions stay queued.
	blocker, _, rej := s.Admit(slowSpec(t, 2), "c1", "")
	if rej != nil {
		t.Fatal(rej)
	}
	a, dedup, rej := s.Admit(fastSpec(t, 3), "c1", "")
	if rej != nil || dedup {
		t.Fatalf("first copy: dedup=%v rej=%v", dedup, rej)
	}
	b, dedup, rej := s.Admit(fastSpec(t, 3), "c1", "")
	if rej != nil {
		t.Fatal(rej)
	}
	if !dedup || b != a {
		t.Fatalf("identical spec must join the in-flight job (dedup=%v, %p vs %p)", dedup, a, b)
	}
	if got := s.c.deduped.Load(); got != 1 {
		t.Fatalf("deduped counter: want 1, got %d", got)
	}
	_ = blocker
}

// TestCacheDedup: re-submitting a finished job's spec is answered from the
// content-addressed cache without simulating again.
func TestCacheDedup(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	first, _, rej := s.Admit(fastSpec(t, 4), "c1", "")
	if rej != nil {
		t.Fatal(rej)
	}
	if st := waitTerminal(t, first, 10*time.Second); st.State != StateDone {
		t.Fatalf("first run: %s (%+v)", st.State, st.Error)
	}
	second, dedup, rej := s.Admit(fastSpec(t, 4), "c1", "")
	if rej != nil || dedup {
		t.Fatalf("finished jobs must not in-flight-dedup: dedup=%v rej=%v", dedup, rej)
	}
	st := waitTerminal(t, second, 10*time.Second)
	if st.State != StateDone || !st.Cached {
		t.Fatalf("want cached done, got state=%s cached=%v", st.State, st.Cached)
	}
	if got := s.c.cacheHits.Load(); got != 1 {
		t.Fatalf("cacheHits counter: want 1, got %d", got)
	}
}

// TestReadmitAfterTerminal: a spec re-submitted the moment its job turns
// terminal starts a new job and never joins the finished one. The job leaves
// the dedup index before it is marked terminal, so no round may race it;
// every round after the first is answered from the cache.
func TestReadmitAfterTerminal(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	spec := fastSpec(t, 5)
	for round := 0; round < 200; round++ {
		j, dedup, rej := s.Admit(spec, "c1", "")
		if rej != nil || dedup {
			t.Fatalf("round %d: dedup=%v rej=%v, want a new job", round, dedup, rej)
		}
		if st := waitTerminal(t, j, 10*time.Second); st.State != StateDone {
			t.Fatalf("round %d: %s (%+v)", round, st.State, st.Error)
		}
	}
}

// TestDedupKeyReleasedBeforeTerminal pins the order TestReadmitAfterTerminal
// relies on without depending on scheduling: while the test holds the
// server's lock the finishing job cannot leave the dedup index, so it must
// not turn terminal either.
func TestDedupKeyReleasedBeforeTerminal(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	j, _, rej := s.Admit(fastSpec(t, 6), "c1", "")
	if rej != nil {
		t.Fatal(rej)
	}
	s.mu.Lock()
	select {
	case <-j.Done():
		s.mu.Unlock()
		t.Fatal("job turned terminal while still in the dedup index")
	case <-time.After(250 * time.Millisecond):
	}
	s.mu.Unlock()
	waitTerminal(t, j, 10*time.Second)
}

// TestQueueFullRejects: admissions past the queue bound answer 429
// queue_full with Retry-After, and the rejection is counted.
func TestQueueFullRejects(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(seed uint64, slow bool) *http.Response {
		spec := fastJSON(seed)
		if slow {
			spec = fmt.Sprintf(
				`{"kind":"sim","topology":{"noc":"hoplite","n":16},
				  "workload":{"pattern":"RANDOM","rate":1.0,"packets":100000,"seed":%d}}`, seed)
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := post(10, true); resp.StatusCode != http.StatusAccepted { // occupies the worker
		t.Fatalf("blocker: %d", resp.StatusCode)
	}
	// The worker may claim the blocker asynchronously; whichever of these
	// lands in the queue, the one after a full queue must be refused.
	var got429 *http.Response
	for seed := uint64(11); seed < 16; seed++ {
		resp := post(seed, false)
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if got429 == nil {
		t.Fatal("queue never filled; expected a 429")
	}
	if got429.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var body errorBody
	if err := json.NewDecoder(got429.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Code != "queue_full" {
		t.Fatalf("want queue_full, got %q", body.Error.Code)
	}
	if s.c.rejectedQueue.Load() == 0 {
		t.Fatal("queue_full rejection not counted")
	}
}

// TestRateLimitRejects: a client past its token bucket is refused with 429
// rate_limited and a positive retry hint; other clients are unaffected.
func TestRateLimitRejects(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, RatePerSec: 0.001, Burst: 1})
	if _, _, rej := s.Admit(fastSpec(t, 20), "greedy", ""); rej != nil {
		t.Fatalf("first admission within burst must pass: %v", rej)
	}
	_, _, rej := s.Admit(fastSpec(t, 21), "greedy", "")
	if rej == nil || rej.Code != "rate_limited" {
		t.Fatalf("want rate_limited, got %v", rej)
	}
	if rej.RetryAfter <= 0 {
		t.Fatal("rate_limited without a retry hint")
	}
	if _, _, rej := s.Admit(fastSpec(t, 22), "patient", ""); rej != nil {
		t.Fatalf("other clients must not share the bucket: %v", rej)
	}
	if got := s.c.rejectedRate.Load(); got != 1 {
		t.Fatalf("rate rejection counter: want 1, got %d", got)
	}
}

// TestBadSpecRejects: malformed documents answer 400 with the structured
// error envelope and never reach admission.
func TestBadSpecRejects(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct{ js, field string }{
		{`{"kind":`, ""},
		{`{"kind":"mine-bitcoin"}`, "kind"},
		{`{"kind":"sim","workload":{"pattern":"RANDOM","rate":9,"packets":10}}`, "workload.rate"},
		// No field of a spec makes a job crash on request: tests reach a
		// job's execution through Options.beforeRun instead.
		{`{"kind":"sim","debug_panic":true}`, ""},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(c.js))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: want 400, got %d", c.js, resp.StatusCode)
		}
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Error.Code != "bad_spec" || body.Error.Message == "" || body.Error.Field != c.field {
			t.Fatalf("%s: bad envelope %+v", c.js, body.Error)
		}
	}
	if got := s.c.badSpec.Load(); got != int64(len(cases)) {
		t.Fatalf("bad_spec counter: want %d, got %d", len(cases), got)
	}
	if got := s.c.admitted.Load(); got != 0 {
		t.Fatalf("malformed specs must never be admitted, got %d", got)
	}
}

// TestPanicIsolation: a panicking job becomes a structured failure with a
// stack, and the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	const crash = 29
	s := newTestServer(t, Options{Workers: 1, beforeRun: func(j *Job) {
		if j.Spec.Workload.Seed == crash {
			panic("test job crashes")
		}
	}})
	j, _, rej := s.Admit(fastSpec(t, crash), "c1", "")
	if rej != nil {
		t.Fatal(rej)
	}
	st := waitTerminal(t, j, 10*time.Second)
	if st.State != StateFailed || st.Error == nil || st.Error.Kind != "panic" {
		t.Fatalf("want failed/panic, got %s %+v", st.State, st.Error)
	}
	if st.Error.Stack == "" {
		t.Fatal("panic failure without a stack")
	}
	if got := s.c.panics.Load(); got != 1 {
		t.Fatalf("panic counter: want 1, got %d", got)
	}
	// The daemon survived: the next job runs normally.
	k, _, rej := s.Admit(fastSpec(t, 30), "c1", "")
	if rej != nil {
		t.Fatal(rej)
	}
	if st := waitTerminal(t, k, 10*time.Second); st.State != StateDone {
		t.Fatalf("daemon did not keep serving after a panic: %s", st.State)
	}
}

// TestDebugPanicRequiresHooks: no spec reaches a job's execution on request.
// The only hook is Options.beforeRun, which no flag sets, so a debug_panic
// spec is refused when it is decoded, before Admit could see it.
func TestDebugPanicRequiresHooks(t *testing.T) {
	_, err := cliflags.DecodeJobSpec(strings.NewReader(`{"kind":"sim","debug_panic":true}`))
	if err == nil || !strings.Contains(err.Error(), "debug_panic") {
		t.Fatalf("want an unknown-field error naming debug_panic, got %v", err)
	}
}

// TestJobTimeout: a spec deadline aborts a heavy run via the engine's
// cancellation poll and surfaces as a structured timeout failure.
func TestJobTimeout(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	// n=8 keeps each 4096-cycle cancellation-poll block cheap even under
	// the race detector, so the deadline surfaces promptly.
	spec := decodeSpec(t, `{"kind":"sim","timeout_ms":20,
		"topology":{"noc":"hoplite","n":8},
		"workload":{"pattern":"RANDOM","rate":1.0,"packets":200000,"seed":31}}`)
	j, _, rej := s.Admit(spec, "c1", "")
	if rej != nil {
		t.Fatal(rej)
	}
	st := waitTerminal(t, j, 30*time.Second)
	if st.State != StateFailed || st.Error == nil || st.Error.Kind != "timeout" {
		t.Fatalf("want failed/timeout, got %s %+v", st.State, st.Error)
	}
	if got := s.c.timeouts.Load(); got != 1 {
		t.Fatalf("timeout counter: want 1, got %d", got)
	}
}

// TestStreamDeliversTerminalStatus: an SSE subscriber sees the job's final
// status frame and the stream then closes.
func TestStreamDeliversTerminalStatus(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _, rej := s.Admit(fastSpec(t, 40), "c1", "")
	if rej != nil {
		t.Fatal(rej)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + j.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type: %s", ct)
	}
	var sawDone bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() { // stream ends when the job finishes and the server closes it
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"state":"done"`) {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("stream closed without a terminal done frame")
	}
}

// TestStalledStreamNeverWedgesJob: a /jobs/{id}/stream client that never
// reads fills its socket and its bounded frame buffer; the job must still
// publish without blocking (the overflow is dropped oldest-first), reach its
// terminal state, and leave /healthz answering while that connection is
// still open.
func TestStalledStreamNeverWedgesJob(t *testing.T) {
	// The job is held live in beforeRun until the flood is over, however
	// slowly the stream subscribes and the frames are encoded.
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	s := newTestServer(t, Options{Workers: 1, beforeRun: func(*Job) { <-release }})
	t.Cleanup(unblock) // before newTestServer's Close: a failed test must not wedge it
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _, rej := s.Admit(fastSpec(t, 61), "c1", "")
	if rej != nil {
		t.Fatal(rej)
	}
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /jobs/%s/stream HTTP/1.1\r\nHost: x\r\n\r\n", j.ID)
	// Deliberately never read from conn.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		j.mu.Lock()
		subscribed := len(j.subs) > 0
		j.mu.Unlock()
		if subscribed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream never subscribed; job state %s", j.State())
		}
	}

	// 256 frames of 64 KiB are far more than the socket buffers and the
	// subscriber's sseBuf frames hold, so the handler's write stalls and
	// the buffer overflows; publish itself must return every time.
	big := map[string]string{"pad": strings.Repeat("x", 64<<10)}
	for range 256 {
		j.publish("metrics", big)
	}
	unblock()
	if s.c.sseDropped.Load() == 0 {
		t.Fatal("no frame dropped: the stalled subscriber's buffer never filled")
	}

	st := waitTerminal(t, j, 10*time.Second)
	if !st.State.Terminal() {
		t.Fatalf("job state %s, want terminal", st.State)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("/healthz unreachable with a stalled stream open: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %s, want 200", resp.Status)
	}
}

// TestMetricsEndpoint: the fleet metrics expose the admission counters.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j, _, rej := s.Admit(fastSpec(t, 50), "c1", "")
	if rej != nil {
		t.Fatal(rej)
	}
	waitTerminal(t, j, 10*time.Second)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text() + "\n")
	}
	body := sb.String()
	for _, want := range []string{
		"ftserve_jobs_admitted_total 1",
		`ftserve_jobs_finished_total{state="done"} 1`,
		`ftserve_rejected_total{reason="queue_full"} 0`,
		"ftserve_queue_capacity 64",
		"fasttrack_runner_jobs_executed_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}
