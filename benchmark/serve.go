package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fasttrack/internal/cliflags"
	"fasttrack/internal/core"
	"fasttrack/internal/serve"
)

// serveInst is serve-mixed opened for one run. Every pass talks to a fresh
// daemon over a fresh cache directory, both built by setup, so passes do
// identical work.
type serveInst struct {
	e     *env
	specs []string // the request list: one JSON job spec per request

	srv      *serve.Server
	hs       *http.Server
	base     string
	cacheDir string
	clients  []*http.Client
	passes   int
}

func openServe(e *env) (instance, error) {
	n := 1000
	if e.smoke {
		n = 60
	}
	return &serveInst{e: e, specs: requestList(e.seed, n, e.smoke)}, nil
}

// requestList draws the seeded request mix: 60% class A (sim, hoplite,
// rate 0.1), 30% class B (sim, FT d=2 r=1, rate 0.5), 10% class C (sweep,
// FT, TRANSPOSE, 4 rates); after the first 20, 40% of requests repeat an
// earlier spec, so they are answered by the cache or join a job in flight.
func requestList(seed uint64, n int, smoke bool) []string {
	rng := rand.New(rand.NewSource(int64(seed)))
	size, packets, sweepPackets := 8, 200, 100
	if smoke {
		size, packets, sweepPackets = 4, 40, 20
	}
	specs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if i >= 20 && rng.Float64() < 0.4 {
			specs = append(specs, specs[rng.Intn(i)])
			continue
		}
		wseed := seed*1_000_000 + uint64(i) + 1
		switch c := rng.Float64(); {
		case c < 0.6:
			specs = append(specs, fmt.Sprintf(`{"kind":"sim","topology":{"noc":"hoplite","n":%d},"workload":{"pattern":"RANDOM","rate":0.1,"packets":%d,"seed":%d}}`,
				size, packets, wseed))
		case c < 0.9:
			specs = append(specs, fmt.Sprintf(`{"kind":"sim","topology":{"noc":"ft","n":%d,"d":2,"r":1},"workload":{"pattern":"RANDOM","rate":0.5,"packets":%d,"seed":%d}}`,
				size, packets, wseed))
		default:
			specs = append(specs, fmt.Sprintf(`{"kind":"sweep","topology":{"noc":"ft","n":%d,"d":2,"r":1},"workload":{"pattern":"TRANSPOSE","rate":0.1,"packets":%d,"seed":%d},"rates":[0.1,0.3,0.6,1]}`,
				size, sweepPackets, wseed))
		}
	}
	return specs
}

// setup starts a daemon on a loopback listener over an empty cache and
// opens one keep-alive connection per client with a few warm-up jobs whose
// specs are not in the request list.
func (in *serveInst) setup() error {
	if err := in.close(); err != nil {
		return err
	}
	var err error
	if in.cacheDir, err = os.MkdirTemp(in.e.tmp, "ftcache-"); err != nil {
		return err
	}
	in.srv, err = serve.New(serve.Options{
		Workers: in.e.procs, SweepWorkers: 1, QueueDepth: 64, CacheDir: in.cacheDir,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.hs = &http.Server{Handler: in.srv.Handler()}
	go func() { _ = in.hs.Serve(ln) }() // returns when close calls hs.Close
	in.base = "http://" + ln.Addr().String()

	in.clients = make([]*http.Client, in.e.procs)
	for c := range in.clients {
		in.clients[c] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		for k := 0; k < 50; k++ {
			warm := fmt.Sprintf(`{"kind":"sim","topology":{"noc":"hoplite","n":4},"workload":{"pattern":"RANDOM","rate":0.1,"packets":20,"seed":%d}}`,
				in.e.seed*1000+uint64(c*50+k)+1)
			if r := in.request(nil, 0, c, -1, warm); r.err != nil {
				return fmt.Errorf("warm-up: %w", r.err)
			}
		}
	}
	return nil
}

// close drains the daemon, closes its listener and connections, and removes
// its cache directory.
func (in *serveInst) close() error {
	if in.srv == nil {
		return nil
	}
	for _, c := range in.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.srv.Drain(ctx)
	if cerr := in.hs.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(in.cacheDir); err == nil {
		err = rerr
	}
	in.srv, in.hs, in.clients = nil, nil, nil
	return err
}

// reply is the client's record of one request.
type reply struct {
	err               error
	client            int
	jobID, traceID    string
	dedup, cached     bool
	post, ttff, total time.Duration
	t0                time.Time
	results           []serve.ResultSummary
	span              int
}

// terminalStatus is the part of the terminal SSE status frame the client reads.
type terminalStatus struct {
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  *struct {
		Kind    string `json:"kind"`
		Message string `json:"message"`
	} `json:"error"`
	Result json.RawMessage `json:"result"`
}

// request performs one closed-loop job on client c's connection: POST /jobs,
// GET /jobs/{id}/stream, read to the terminal status frame. The job's
// latency runs from the POST being sent to that frame being read.
func (in *serveInst) request(rec *recorder, passSpan, c, index int, spec string) (r reply) {
	r.client = c
	client := in.clients[c]
	traceID := ""
	if index >= 0 {
		traceID = fmt.Sprintf("bench-p%d-r%04d", in.passes, index)
	}
	r.span = rec.begin(passSpan, 1+c, traceID, "request")
	defer func() {
		rec.end(r.span, map[string]any{"index": index, "job": r.jobID, "cached": r.cached, "dedup": r.dedup})
	}()

	req, err := http.NewRequest(http.MethodPost, in.base+"/jobs", strings.NewReader(spec))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(serve.TraceHeader, traceID)
	}
	r.t0 = time.Now()
	postSpan := rec.begin(r.span, 1+c, traceID, "POST")
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	var accepted struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
		Dedup   bool   `json:"dedup"`
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.post = time.Since(r.t0)
	rec.end(postSpan, map[string]any{"status": resp.StatusCode})
	if err != nil {
		r.err = err
		return r
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("POST /jobs: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return r
	}
	if err := json.Unmarshal(body, &accepted); err != nil {
		r.err = err
		return r
	}
	r.jobID, r.traceID, r.dedup = accepted.ID, accepted.TraceID, accepted.Dedup

	openSpan := rec.begin(r.span, 1+c, traceID, "stream-open")
	resp, err = client.Get(in.base + "/jobs/" + r.jobID + "/stream")
	rec.end(openSpan, nil)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("GET stream: status %d", resp.StatusCode)
		return r
	}
	// Frames are "event: <name>\ndata: <json>\n\n"; the stream ends after the
	// terminal status frame, and reading to EOF frees the connection.
	var (
		frameSpan = rec.begin(r.span, 1+c, traceID, "first-frame")
		sc        = bufio.NewScanner(resp.Body)
		event     string
		frames    int
		last      terminalStatus
	)
	sc.Buffer(make([]byte, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			if frames == 0 {
				r.ttff = time.Since(r.t0)
				rec.end(frameSpan, nil)
				frameSpan = rec.begin(r.span, 1+c, traceID, "terminal-frame")
			}
			frames++
			if event == "status" {
				last = terminalStatus{}
				if err := json.Unmarshal(line[len("data: "):], &last); err != nil {
					r.err = err
					return r
				}
				if last.State == "done" || last.State == "failed" || last.State == "canceled" {
					r.total = time.Since(r.t0)
				}
			}
		}
	}
	rec.end(frameSpan, map[string]any{"frames": frames})
	if err := sc.Err(); err != nil {
		r.err = err
		return r
	}
	if last.State != "done" {
		r.err = fmt.Errorf("job %s ended %q: %+v", r.jobID, last.State, last.Error)
		return r
	}
	r.cached = last.Cached
	if bytes.HasPrefix(bytes.TrimSpace(last.Result), []byte("[")) {
		r.err = json.Unmarshal(last.Result, &r.results)
	} else {
		r.results = make([]serve.ResultSummary, 1)
		r.err = json.Unmarshal(last.Result, &r.results[0])
	}
	return r
}

func (in *serveInst) pass(rec *recorder) (*passOut, error) {
	in.passes++
	n := len(in.specs)
	out := &passOut{attempted: n, layer: map[string]float64{}}
	replies := make([]reply, n)
	passSpan := rec.begin(0, 0, "", "pass")
	reg := beginRegion()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := range in.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				replies[i] = in.request(rec, passSpan, c, i, in.specs[i])
			}
		}(c)
	}
	wg.Wait()
	reg.end(out)
	rec.end(passSpan, map[string]any{"requests": n, "clients": len(in.clients)})

	h := sha256.New()
	var post, ttff, hit, miss []float64
	for i := range replies {
		r := &replies[i]
		if r.err != nil {
			out.failed++
			out.notes = append(out.notes, fmt.Sprintf("request %d: %v", i, r.err))
			// A failed or refused job misses every latency limit.
			out.opsMS = append(out.opsMS, float64(time.Hour.Milliseconds()))
			continue
		}
		out.jobs++
		ms := float64(r.total.Nanoseconds()) / 1e6
		out.opsMS = append(out.opsMS, ms)
		post = append(post, float64(r.post.Nanoseconds())/1e6)
		ttff = append(ttff, float64(r.ttff.Nanoseconds())/1e6)
		if r.cached {
			hit = append(hit, ms)
		} else {
			miss = append(miss, ms)
		}
		for _, s := range r.results {
			s.Cached = false // how a result was obtained is timing, not statistics
			fmt.Fprintf(h, "%d %+v\n", i, s)
		}
	}
	out.digest = fmt.Sprintf("%x", h.Sum(nil))
	for i := 0; i < n; i += 50 {
		if err := in.checkDirect(&replies[i], in.specs[i]); err != nil {
			out.fail("request %d: served result differs from direct core.RunSynthetic: %v", i, err)
		}
	}

	m, err := in.scrape()
	if err != nil {
		return nil, err
	}
	posts := float64(n)
	for _, v := range [][]float64{post, ttff, hit, miss} {
		sort.Float64s(v)
	}
	out.layer["serve.post_p50_ms"] = ceilRank(post, 0.50)
	out.layer["serve.post_p99_ms"] = ceilRank(post, 0.99)
	out.layer["serve.ttff_p50_ms"] = ceilRank(ttff, 0.50)
	out.layer["serve.hit_p50_ms"] = ceilRank(hit, 0.50)
	out.layer["serve.miss_p50_ms"] = ceilRank(miss, 0.50)
	out.layer["serve.queue_wait_mean_us"] = 1e6 * ratio(m["ftserve_queue_wait_seconds_sum"], m["ftserve_queue_wait_seconds_count"])
	out.layer["serve.run_mean_ms"] = 1e3 * ratio(m["ftserve_run_seconds_sum"], m["ftserve_run_seconds_count"])
	out.layer["serve.sse_flush_mean_us"] = 1e6 * ratio(m["ftserve_sse_flush_seconds_sum"], m["ftserve_sse_flush_seconds_count"])
	out.layer["serve.cache_hit_share"] = m["ftserve_cache_hits_total"] / posts
	out.layer["serve.dedup_share"] = m["ftserve_jobs_deduped_total"] / posts
	rejected := m[`ftserve_rejected_total{reason="queue_full"}`] + m[`ftserve_rejected_total{reason="rate_limited"}`] +
		m[`ftserve_rejected_total{reason="draining"}`] + m[`ftserve_rejected_total{reason="bad_spec"}`]
	out.layer["serve.rejected_share"] = rejected / posts
	out.layer["serve.sse_dropped"] = m["ftserve_sse_dropped_frames_total"]
	out.layer["runner.sims_executed"] = m["fasttrack_runner_jobs_executed_total"]
	out.layer["runner.cache_hits"] = m["fasttrack_runner_jobs_cached_total"]
	if rejected != 0 || m["ftserve_sse_dropped_frames_total"] != 0 {
		out.fail("daemon rejected %v requests and dropped %v SSE frames, want 0 and 0", rejected, m["ftserve_sse_dropped_frames_total"])
	}
	if rec != nil {
		if err := in.attachServerSpans(rec, replies, out.layer); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkDirect replays one served job directly through core.RunSynthetic and
// compares the simulated statistics.
func (in *serveInst) checkDirect(r *reply, body string) error {
	if r.err != nil {
		return nil // already counted as failed
	}
	spec, err := cliflags.DecodeJobSpec(strings.NewReader(body))
	if err != nil {
		return err
	}
	rates := spec.Rates
	if spec.Kind == "sim" {
		rates = []float64{spec.Workload.Rate}
	}
	if len(rates) != len(r.results) {
		return fmt.Errorf("%d results for %d rates", len(r.results), len(rates))
	}
	for k, rate := range rates {
		cfg, opts, err := spec.SimConfig(rate)
		if err != nil {
			return err
		}
		res, err := core.RunSynthetic(context.Background(), cfg, opts)
		if err != nil {
			return err
		}
		got, want := r.results[k], statsOf(res)
		if got.Cycles != want.Cycles || got.Injected != want.Injected || got.Delivered != want.Delivered ||
			got.WorstLatency != want.Worst || got.P50 != want.P50 || got.P99 != want.P99 {
			return fmt.Errorf("rate %v: served %+v, direct %+v", rate, got, want)
		}
	}
	return nil
}

// scrape parses the daemon's Prometheus exposition into name{labels} → value.
func (in *serveInst) scrape() (map[string]float64, error) {
	resp, err := in.clients[0].Get(in.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// attachServerSpans fetches /debug/trace/{id} for one request in ten and
// records the daemon's own stage spans as children of the client's request
// span. The daemon's timestamps are relative to the job's admission, which
// the client cannot see; the spans are placed at the request's start, so
// their durations are exact and their offsets are not.
func (in *serveInst) attachServerSpans(rec *recorder, replies []reply, layer map[string]float64) error {
	var peekNS, peeks float64
	var transport []float64
	for i := 0; i < len(replies); i += 10 {
		r := &replies[i]
		if r.err != nil || r.dedup {
			continue // a joined job's trace belongs to the request it joined
		}
		resp, err := in.clients[0].Get(in.base + "/debug/trace/" + r.jobID)
		if err != nil {
			return err
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				TS   float64 `json:"ts"`
				Args struct {
					DurNS int64 `json:"dur_ns"`
				} `json:"args"`
			} `json:"traceEvents"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("/debug/trace/%s: %w", r.jobID, err)
		}
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			dur := time.Duration(ev.Args.DurNS)
			rec.add(r.span, 1+len(in.clients)+r.client, r.traceID, "server:"+ev.Name,
				r.t0.Add(time.Duration(ev.TS*1e3)), dur, nil)
			switch ev.Name {
			case "cache_peek":
				peekNS += float64(dur)
				peeks++
			case "job":
				transport = append(transport, float64((r.total-dur).Nanoseconds())/1e6)
			}
		}
	}
	layer["serve.cache_peek_mean_us"] = ratio(peekNS, peeks) / 1e3
	sort.Float64s(transport)
	layer["serve.transport_p50_ms"] = ceilRank(transport, 0.50)
	return nil
}
