package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"
)

// env is what a workload instance is given: the seed its inputs derive
// from, its size, and a scratch directory that the run removes at the end.
type env struct {
	seed  uint64
	smoke bool
	procs int
	tmp   string
}

// instance is one workload opened for one run.
type instance interface {
	// setup does everything a timed pass needs that is not itself measured
	// (warm-up, cache populate, trace generation, daemon start). It is timed
	// as one setup_s sample and may be called again; each call replaces what
	// the previous one built.
	setup() error
	// pass runs one timed pass. rec is nil on an untraced pass.
	pass(rec *recorder) (*passOut, error)
	// close releases everything setup built: no temp dir, listener or
	// goroutine outlives it.
	close() error
}

// passOut is what one timed pass reports.
type passOut struct {
	// opsMS holds one latency per operation (see endToEnd), in milliseconds.
	opsMS []float64
	// jobs is the count jobs_per_s divides by wall_s: results returned
	// (paper-*), simulations (engine-*), terminal jobs (serve-mixed).
	jobs int
	// attempted and failed count operations; a digest or cross-check
	// mismatch fails every operation of the pass.
	attempted, failed int
	// digest is the SHA-256 over the pass's simulated statistics.
	digest string
	// notes explain each failure.
	notes []string
	// layer holds the per-layer values this pass could measure.
	layer map[string]float64
	// The timed region's wall clock and Go runtime cost, set by region.end.
	wall                time.Duration
	allocBytes, mallocs uint64
	gcCPU, allCPU       float64
	heapSys             uint64
}

// region is the timed part of a pass: what the workload's user waits for,
// without the benchmark's own checking before and after it.
type region struct {
	t0 time.Time
	h0 hostSample
}

func beginRegion() region {
	runtime.GC()
	return region{h0: readHost(), t0: time.Now()}
}

func (r region) end(out *passOut) {
	out.wall = time.Since(r.t0)
	h1 := readHost()
	out.allocBytes = h1.mem.TotalAlloc - r.h0.mem.TotalAlloc
	out.mallocs = h1.mem.Mallocs - r.h0.mem.Mallocs
	out.gcCPU, out.allCPU = h1.gcCPU-r.h0.gcCPU, h1.allCPU-r.h0.allCPU
	out.heapSys = h1.mem.HeapSys
}

// fail marks the whole pass failed, for mismatches that make every number
// of the pass meaningless.
func (p *passOut) fail(format string, args ...any) {
	p.failed = p.attempted
	p.notes = append(p.notes, fmt.Sprintf(format, args...))
}

// metricValue is one reported number.
type metricValue struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	PerLayer bool    `json:"per_layer,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string        `json:"workload"`
	Seed      uint64        `json:"seed"`
	Traced    bool          `json:"traced,omitempty"`
	Passes    int           `json:"passes"`
	Samples   int           `json:"latency_samples"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Correct   bool          `json:"correct"`
	Digest    string        `json:"digest"`
	Notes     []string      `json:"notes,omitempty"`
	Metrics   []metricValue `json:"metrics"`
}

func (r *runResult) metric(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// print writes every metric by name with its unit, one per line.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d passes %d latency_samples %d\n", r.Workload, r.Seed, r.Passes, r.Samples)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-34s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "digest %s\n", r.Digest)
	fmt.Fprintf(w, "attempted %d failed %d correct %v (model not mechanically validated against the paper)\n",
		r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// hostSample is the Go runtime's cumulative cost at one instant.
type hostSample struct {
	mem           runtime.MemStats
	gcCPU, allCPU float64
}

func readHost() hostSample {
	var h hostSample
	runtime.ReadMemStats(&h.mem)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		h.gcCPU, h.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return h
}

// runWorkload opens w, sets it up, and repeats timed passes until the
// measuring budget is spent. A traced run alternates untraced and traced
// passes, so the tracing overhead is measured inside the same run, then
// runs the layer probes.
func runWorkload(w *workload, opt options) (res *runResult, err error) {
	tmp, err := os.MkdirTemp(opt.outDir, "tmp-"+w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: opt.seed, smoke: opt.smoke, procs: procs(), tmp: tmp}
	inst, err := w.open(e)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := inst.close(); err == nil && cerr != nil {
			res, err = nil, cerr
		}
	}()

	var rec *recorder
	if opt.traced {
		rec = newRecorder()
	}
	var setupS []float64
	timedSetup := func() error {
		t0 := time.Now()
		if err := inst.setup(); err != nil {
			return fmt.Errorf("%s setup: %w", w.Name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return nil
	}
	if !w.setupEveryPass {
		for i := 0; i < w.setupReps; i++ {
			if err := timedSetup(); err != nil {
				return nil, err
			}
		}
	}

	res = &runResult{Workload: w.Name, Seed: opt.seed, Traced: opt.traced}
	var (
		wallS, tracedWallS, allocMB []float64
		p50MS, p99MS                []float64
		jobs                        int
		layers                      = map[string][]float64{}
		digests                     = map[string]bool{}
		mallocs                     uint64
		gcCPU, allCPU               float64
		heapSys                     uint64
	)
	budget := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	for k := 0; ; k++ {
		if w.setupEveryPass {
			if err := timedSetup(); err != nil {
				return nil, err
			}
		}
		traced := opt.traced && k%2 == 1
		var passRec *recorder
		if traced {
			passRec = rec
		}
		out, err := inst.pass(passRec)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", w.Name, k, err)
		}

		res.Passes++
		res.Attempted += out.attempted
		res.Failed += out.failed
		res.Notes = append(res.Notes, out.notes...)
		digests[out.digest] = true
		res.Digest = out.digest
		for name, v := range out.layer {
			layers[name] = append(layers[name], v)
		}
		if traced {
			tracedWallS = append(tracedWallS, out.wall.Seconds())
		} else {
			wallS = append(wallS, out.wall.Seconds())
			allocMB = append(allocMB, float64(out.allocBytes)/1e6)
			sort.Float64s(out.opsMS)
			p50MS = append(p50MS, ceilRank(out.opsMS, 0.50))
			p99MS = append(p99MS, ceilRank(out.opsMS, 0.99))
			res.Samples += len(out.opsMS)
			jobs = out.jobs
			mallocs += out.mallocs
			gcCPU += out.gcCPU
			allCPU += out.allCPU
			heapSys = max(heapSys, out.heapSys)
		}
		if time.Since(start) >= budget && (!opt.traced || k%2 == 1) {
			break
		}
	}

	if len(digests) != 1 {
		res.Failed = res.Attempted
		res.Notes = append(res.Notes, fmt.Sprintf("passes disagree: %d distinct digests", len(digests)))
	}
	if want, pinned := goldenDigest(opt.smoke, opt.seed, w.Name); pinned && want != res.Digest {
		res.Failed = res.Attempted
		res.Notes = append(res.Notes, fmt.Sprintf("digest %s does not match golden.json (%s)", res.Digest, want))
	}
	res.Correct = res.Failed == 0

	wallMed := median(wallS)
	e2e := map[string]float64{
		"setup_s":    median(setupS),
		"wall_s":     wallMed,
		"jobs_per_s": float64(jobs) / wallMed,
		"job_p50_ms": median(p50MS),
		"job_p99_ms": median(p99MS),
		"alloc_mb":   median(allocMB),
	}
	for _, d := range endToEnd {
		res.Metrics = append(res.Metrics, metricValue{Name: d.Name, Unit: d.Unit, Value: e2e[d.Name]})
	}
	if !opt.traced {
		return res, nil
	}

	probes, err := runProbes(e, rec)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	layer := map[string]float64{
		"bench.trace_overhead_ratio": median(tracedWallS) / wallMed,
		"host.peak_heap_mb":          float64(heapSys) / 1e6,
		"host.mallocs_per_job":       float64(mallocs) / float64(jobs*len(wallS)),
	}
	if allCPU > 0 {
		layer["host.gc_cpu_share"] = gcCPU / allCPU
	}
	for name, v := range probes {
		layer[name] = v
	}
	for name, vs := range layers { // a workload's own measurement outranks the probe's
		layer[name] = median(vs)
	}
	for _, d := range perLayer {
		res.Metrics = append(res.Metrics, metricValue{Name: d.Name, Unit: d.Unit, Value: layer[d.Name], PerLayer: true})
		delete(layer, d.Name)
	}
	for name := range layer { // anything left was measured under a name the registry lacks
		return nil, fmt.Errorf("per-layer metric %q is measured but not in the registry", name)
	}
	tracePath := filepath.Join(opt.outDir, w.Name+".trace.json")
	if err := rec.writeChrome(tracePath, provenanceOf(opt)); err != nil {
		return nil, err
	}
	return res, nil
}

// median returns the middle value of xs (mean of the two middle ones for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ceilRank returns the q-quantile of sorted by the repository's ceil-rank
// convention: the value at rank ceil(q*n). For fewer than 100 samples the
// 0.99 quantile is therefore the maximum.
func ceilRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n) - 1e-9)) // 0.99*1000 is not exactly 990
	return sorted[min(max(rank, 1), n)-1]
}
