package monitor_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"fasttrack/internal/monitor"
	"fasttrack/internal/runner"
	"fasttrack/internal/serve"
	"fasttrack/internal/sim"
)

// This file is the `make metrics-lint` gate: a self-contained Prometheus
// 0.0.4 text-exposition parser (no external dependency, same spirit as the
// hand-rolled PromWriter it audits) that scrapes the LIVE /metrics
// endpoints — the per-run ops server and the ftserve daemon — and rejects
// anything a real Prometheus scraper would choke on: samples without a
// TYPE line, malformed names or label escaping, duplicate or interleaved
// families, NaN/negative counters, and non-monotone histogram buckets.

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

type promFamily struct {
	typ     string
	help    bool
	closed  bool // a later family started; reopening = interleaved
	buckets map[string][]bucket
	sums    map[string]float64
	counts  map[string]float64
}

type bucket struct {
	le    float64
	count float64
}

// parseLabels validates the {name="value",...} block, returning a
// canonical (sorted) form for duplicate detection and the raw le value.
func parseLabels(s string, line int) (canon, le string, err error) {
	if s == "" {
		return "", "", nil
	}
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return "", "", fmt.Errorf("line %d: malformed label block %q", line, s)
	}
	body := s[1 : len(s)-1]
	var pairs []string
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return "", "", fmt.Errorf("line %d: label without '=' in %q", line, s)
		}
		name := body[:eq]
		if !labelNameRe.MatchString(name) {
			return "", "", fmt.Errorf("line %d: bad label name %q", line, name)
		}
		rest := body[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return "", "", fmt.Errorf("line %d: label %s value not quoted", line, name)
		}
		rest = rest[1:]
		var val strings.Builder
		i := 0
		for {
			if i >= len(rest) {
				return "", "", fmt.Errorf("line %d: unterminated label value for %s", line, name)
			}
			c := rest[i]
			if c == '"' {
				break
			}
			if c == '\\' {
				if i+1 >= len(rest) {
					return "", "", fmt.Errorf("line %d: dangling escape in label %s", line, name)
				}
				switch rest[i+1] {
				case '\\', '"', 'n':
				default:
					return "", "", fmt.Errorf("line %d: invalid escape \\%c in label %s", line, rest[i+1], name)
				}
				val.WriteByte(rest[i+1])
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		body = rest[i+1:]
		switch {
		case body == "":
		case strings.HasPrefix(body, ","):
			body = body[1:]
		default:
			return "", "", fmt.Errorf("line %d: expected ',' or '}' after label %s", line, name)
		}
		if name == "le" {
			le = val.String()
		}
		pairs = append(pairs, name+"="+val.String())
	}
	sort.Strings(pairs)
	return "{" + strings.Join(pairs, ",") + "}", le, nil
}

// baseFamily maps a sample name to the family that must have announced it:
// histogram and summary series use the reserved suffixes.
func baseFamily(name string, families map[string]*promFamily) (string, bool) {
	if f, ok := families[name]; ok && (f.typ != "histogram" && f.typ != "summary") {
		return name, true
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if b, found := strings.CutSuffix(name, suf); found {
			if f, ok := families[b]; ok && (f.typ == "histogram" || f.typ == "summary") {
				return b, true
			}
		}
	}
	_, ok := families[name]
	return name, ok
}

// lintProm validates one exposition document and returns the first
// violation (nil when clean).
func lintProm(text string) error {
	families := map[string]*promFamily{}
	seen := map[string]bool{} // name+canonical labels → duplicate detection
	current := ""
	openFamily := func(fam string, line int) error {
		if current == fam {
			return nil
		}
		if f, ok := families[fam]; ok && f.closed {
			return fmt.Errorf("line %d: family %s interleaved (samples split by another family)", line, fam)
		}
		if cf, ok := families[current]; ok {
			cf.closed = true
		}
		current = fam
		return nil
	}

	lines := strings.Split(text, "\n")
	for i, raw := range lines {
		n := i + 1
		line := strings.TrimRight(raw, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				return fmt.Errorf("line %d: comment is neither HELP nor TYPE: %q", n, line)
			}
			name := parts[2]
			if !metricNameRe.MatchString(name) {
				return fmt.Errorf("line %d: bad metric name %q", n, name)
			}
			f := families[name]
			if f == nil {
				f = &promFamily{buckets: map[string][]bucket{}, sums: map[string]float64{}, counts: map[string]float64{}}
				families[name] = f
			}
			if parts[1] == "HELP" {
				if f.help {
					return fmt.Errorf("line %d: second HELP for %s", n, name)
				}
				if len(parts) < 4 || parts[3] == "" {
					return fmt.Errorf("line %d: empty HELP for %s", n, name)
				}
				f.help = true
			} else {
				if f.typ != "" {
					return fmt.Errorf("line %d: second TYPE for %s", n, name)
				}
				if len(parts) < 4 {
					return fmt.Errorf("line %d: TYPE without a type for %s", n, name)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.typ = parts[3]
				default:
					return fmt.Errorf("line %d: unknown TYPE %q for %s", n, parts[3], name)
				}
			}
			if err := openFamily(name, n); err != nil {
				return err
			}
			continue
		}

		// Sample: name[{labels}] value [timestamp]
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("line %d: sample without value: %q", n, line)
		}
		nameLabels, valStr := line[:sp], line[sp+1:]
		// An optional trailing timestamp means valStr is the timestamp.
		if sp2 := strings.LastIndexByte(nameLabels, ' '); sp2 >= 0 && strings.ContainsAny(nameLabels[sp2+1:], "0123456789") && !strings.Contains(nameLabels[sp2+1:], "{") {
			if _, err := strconv.ParseInt(valStr, 10, 64); err != nil {
				return fmt.Errorf("line %d: malformed timestamp %q", n, valStr)
			}
			valStr = nameLabels[sp2+1:]
			nameLabels = nameLabels[:sp2]
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("line %d: unparsable value %q", n, valStr)
		}
		name, labels := nameLabels, ""
		if b := strings.IndexByte(nameLabels, '{'); b >= 0 {
			name, labels = nameLabels[:b], nameLabels[b:]
		}
		if !metricNameRe.MatchString(name) {
			return fmt.Errorf("line %d: bad metric name %q", n, name)
		}
		canon, le, err := parseLabels(labels, n)
		if err != nil {
			return err
		}
		fam, ok := baseFamily(name, families)
		if !ok {
			return fmt.Errorf("line %d: sample %s has no preceding # TYPE line", n, name)
		}
		f := families[fam]
		if f.typ == "" {
			return fmt.Errorf("line %d: sample %s has no preceding # TYPE line", n, name)
		}
		if err := openFamily(fam, n); err != nil {
			return err
		}
		key := name + canon
		if seen[key] {
			return fmt.Errorf("line %d: duplicate sample %s", n, key)
		}
		seen[key] = true

		switch f.typ {
		case "counter":
			if math.IsNaN(val) || val < 0 {
				return fmt.Errorf("line %d: counter %s has invalid value %v", n, name, val)
			}
		case "gauge":
			if math.IsNaN(val) {
				return fmt.Errorf("line %d: gauge %s is NaN", n, name)
			}
		case "histogram":
			group := canon
			if le != "" {
				group = strings.ReplaceAll(group, `{le=`+le+`}`, "")
				group = strings.ReplaceAll(group, `le=`+le+`,`, "")
				group = strings.ReplaceAll(group, `,le=`+le, "")
			}
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if le == "" {
					return fmt.Errorf("line %d: %s bucket without le label", n, fam)
				}
				lev, err := strconv.ParseFloat(le, 64)
				if err != nil {
					return fmt.Errorf("line %d: %s bucket has unparsable le %q", n, fam, le)
				}
				if math.IsNaN(val) || val < 0 {
					return fmt.Errorf("line %d: %s bucket count %v invalid", n, fam, val)
				}
				f.buckets[group] = append(f.buckets[group], bucket{lev, val})
			case strings.HasSuffix(name, "_sum"):
				f.sums[canon] = val
			case strings.HasSuffix(name, "_count"):
				f.counts[canon] = val
			default:
				return fmt.Errorf("line %d: histogram %s has stray sample %s", n, fam, name)
			}
		}
	}

	// Histogram closure checks: buckets sorted and cumulative, +Inf present
	// and consistent with _count.
	for name, f := range families {
		if f.typ != "histogram" {
			continue
		}
		for group, bs := range f.buckets {
			for i := 1; i < len(bs); i++ {
				if bs[i].le <= bs[i-1].le {
					return fmt.Errorf("histogram %s%s: le %v not above %v (buckets must be sorted)", name, group, bs[i].le, bs[i-1].le)
				}
				if bs[i].count < bs[i-1].count {
					return fmt.Errorf("histogram %s%s: bucket counts non-monotone (%v after %v)", name, group, bs[i].count, bs[i-1].count)
				}
			}
			last := bs[len(bs)-1]
			if !math.IsInf(last.le, +1) {
				return fmt.Errorf("histogram %s%s: missing le=\"+Inf\" bucket", name, group)
			}
			cnt, ok := f.counts[group]
			if !ok {
				return fmt.Errorf("histogram %s%s: missing _count", name, group)
			}
			if last.count != cnt {
				return fmt.Errorf("histogram %s%s: +Inf bucket %v != _count %v", name, group, last.count, cnt)
			}
			if _, ok := f.sums[group]; !ok {
				return fmt.Errorf("histogram %s%s: missing _sum", name, group)
			}
		}
	}
	return nil
}

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

func scrapeURL(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET %s: content type %q is not 0.0.4 text exposition", url, ct)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMetricsLintMonitor scrapes the live per-run ops server with every
// source attached and lints the exposition.
func TestMetricsLintMonitor(t *testing.T) {
	prog := new(sim.Progress)
	prog.Cycles.Store(3)
	prog.Injected.Store(1)
	prog.Delivered.Store(1)
	prog.LatSum.Store(2)
	prog.Start.Store(time.Now().UnixNano())
	fr := monitor.NewFlightRecorder(8, 4)
	orch := &runner.Orchestrator{}
	srv, err := monitor.StartServer("127.0.0.1:0", monitor.ServerOptions{
		Progress: prog, Flight: fr, Runner: orch,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	text := scrapeURL(t, srv.URL()+"/metrics")
	if err := lintProm(text); err != nil {
		t.Fatalf("monitor /metrics fails lint: %v\n%s", err, text)
	}
}

// TestMetricsLintServe runs a real job through an ftserve daemon so the
// stage histograms have samples, then lints its /metrics.
func TestMetricsLintServe(t *testing.T) {
	s, err := serve.New(serve.Options{CacheDir: t.TempDir(), QueueDepth: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := `{"kind":"sim","topology":{"noc":"hoplite","n":4},
		"workload":{"pattern":"RANDOM","rate":0.5,"packets":20,"seed":3}}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := jsonDecode(resp.Body, &st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		r2, err := http.Get(ts.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var js struct {
			State string `json:"state"`
		}
		if err := jsonDecode(r2.Body, &js); err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if js.State == "done" || js.State == "failed" || js.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", st.ID)
		}
		time.Sleep(10 * time.Millisecond)
	}

	text := scrapeURL(t, ts.URL+"/metrics")
	if err := lintProm(text); err != nil {
		t.Fatalf("ftserve /metrics fails lint: %v\n%s", err, text)
	}
	for _, want := range []string{"ftserve_queue_wait_seconds_bucket", "ftserve_job_e2e_seconds_sum", "ftserve_run_p99_seconds"} {
		if !strings.Contains(text, want) {
			t.Fatalf("ftserve /metrics missing %s", want)
		}
	}
}

// TestPromLintRejects proves the linter actually bites: each malformed
// document must be rejected for the stated reason.
func TestPromLintRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"missing TYPE", "orphan_total 3\n", "no preceding # TYPE"},
		{"bad escape", "# HELP m d\n# TYPE m gauge\nm{l=\"x\\q\"} 1\n", "invalid escape"},
		{"unquoted label", "# HELP m d\n# TYPE m gauge\nm{l=value} 1\n", "not quoted"},
		{"negative counter", "# HELP c d\n# TYPE c counter\nc -1\n", "invalid value"},
		{"NaN counter", "# HELP c d\n# TYPE c counter\nc NaN\n", "invalid value"},
		{"duplicate sample", "# HELP g d\n# TYPE g gauge\ng 1\ng 2\n", "duplicate sample"},
		{"second TYPE", "# HELP g d\n# TYPE g gauge\n# TYPE g gauge\n", "second TYPE"},
		{"unknown type", "# HELP g d\n# TYPE g matrix\n", "unknown TYPE"},
		{"interleaved family", "# HELP a d\n# TYPE a gauge\na 1\n# HELP b d\n# TYPE b gauge\nb 1\na{x=\"2\"} 2\n", "interleaved"},
		{"unsorted buckets", "# HELP h d\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"0.5\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n", "sorted"},
		{"non-monotone buckets", "# HELP h d\n# TYPE h histogram\nh_bucket{le=\"0.5\"} 5\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n", "non-monotone"},
		{"missing +Inf", "# HELP h d\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "+Inf"},
		{"count mismatch", "# HELP h d\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n", "_count"},
		{"garbage value", "# HELP g d\n# TYPE g gauge\ng one\n", "unparsable value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := lintProm(tc.doc)
			if err == nil {
				t.Fatalf("linter accepted malformed doc:\n%s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("wrong rejection: got %v, want substring %q", err, tc.wantErr)
			}
		})
	}
	clean := "# HELP h d\n# TYPE h histogram\nh_bucket{le=\"0.5\"} 2\nh_bucket{le=\"+Inf\"} 4\nh_sum 1.5\nh_count 4\n"
	if err := lintProm(clean); err != nil {
		t.Fatalf("linter rejected a clean doc: %v", err)
	}
}
