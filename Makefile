# Verification targets. `make verify` is the tier-1 gate plus static
# analysis and the race detector (the sweep orchestrator in internal/runner
# fans simulations across worker goroutines that write shared result slices,
# so the race run is not optional hygiene).

GO ?= go

# Cache directory used by the warm-cache CI check (wiped before the cold
# pass so the assertion is meaningful).
SWEEP_CACHE ?= .ftcache-quick

.PHONY: build fmt test vet race race-shards fuzz verify loc bench sweep-quick monitor-smoke serve-load serve-load-smoke trace-roundtrip metrics-lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, naming them, if gofmt would rewrite any file.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; false; }

race:
	$(GO) test -race ./...

# Shard-engine race stress: the equivalence suites step row-band shards on
# real goroutines (noctest harness, golden sim matrix) and drive the
# synthetic generator's shards from one goroutine each, so running them
# under -race is the data-race gate for the parallel engine; -count=2
# defeats test caching so the goroutine schedules re-roll. The standing-offer
# suites ride along because shard workers call Kernel.Hold and Refuse
# concurrently.
race-shards:
	$(GO) test -race -count=2 -run 'TestShardEquivalence|TestGoldenShardEquivalence|TestSharded|TestConfigureShards|TestSyntheticShard|TestStandingOffers|TestGoldenStandingOffers' ./internal/fabric/ ./internal/hoplite/ ./internal/fasttrack/ ./internal/sim/ ./internal/traffic/

# Non-test Go lines per package and in total (benchmark/ and examples/
# excluded): ROADMAP aim 2 makes net-negative diffs a deliverable, and this
# is the command that checks one — run it on the parent commit and on the
# change.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './examples/*' \
		| xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' \
		| sort -k2

# The repo's one benchmark (BENCHMARK.json, benchmark/README.md): every
# workload once, each run checked against benchmark/golden.json, written as a
# result set with the machine's provenance. A speed claim is a
# `go run ./benchmark compare A B` verdict over such sets from the parent and
# the change; `--workload W --trace 1` adds the per-layer metrics and a
# Perfetto trace.
bench:
	$(GO) run ./benchmark -sets 1 -out benchmark/out/bench.json

# Warm-cache round trip: the quick sweep runs cold into a fresh cache and
# re-runs with -assert-cached, which exits non-zero if any simulation had to
# execute — proving repeated sweeps are answered entirely from disk. The two
# renders must then match byte for byte once SWEEP_FIGS drops the wall-clock
# "(… completed in …)" lines and the "N simulated, M from cache" tally: the
# per-job cold path and the cache render identical figures.
SWEEP_OUT ?= .sweep-quick
SWEEP_FIGS = grep -vE '^\(.* completed in .*\)$$|^[0-9]+ simulated, [0-9]+ from cache$$'
sweep-quick:
	rm -rf $(SWEEP_CACHE) $(SWEEP_OUT) && mkdir -p $(SWEEP_OUT)
	$(GO) run ./cmd/ftexp -quick -run paper -cache-dir $(SWEEP_CACHE) > $(SWEEP_OUT)/cold.txt
	$(GO) run ./cmd/ftexp -quick -run paper -cache-dir $(SWEEP_CACHE) -assert-cached > $(SWEEP_OUT)/warm.txt
	$(SWEEP_FIGS) $(SWEEP_OUT)/cold.txt > $(SWEEP_OUT)/cold.figs
	$(SWEEP_FIGS) $(SWEEP_OUT)/warm.txt | cmp - $(SWEEP_OUT)/cold.figs
	rm -rf $(SWEEP_CACHE) $(SWEEP_OUT)

# Short fuzz pass over the property fuzzers (noc.RingDelta, FastTrack
# topology construction, the daemon's JSON job-spec decoder, the FTT1
# binary trace decoder, the trace replay against its test-only oracle at
# binding and non-binding windows, and a result-cache entry file of
# arbitrary bytes); extend -fuzztime for deeper runs. FuzzCacheGet pays file
# I/O per input, so its minimizer is capped or it would spend the whole pass
# shrinking one.
fuzz:
	$(GO) test -fuzz FuzzRingDelta -fuzztime 10s ./internal/noc/
	$(GO) test -fuzz FuzzTopology -fuzztime 10s ./internal/fasttrack/
	$(GO) test -fuzz FuzzDecodeJobSpec -fuzztime 10s ./internal/cliflags/
	$(GO) test -fuzz FuzzReadBinary -fuzztime 10s ./internal/trace/
	$(GO) test -fuzz FuzzReplayVsOracle -fuzztime 10s ./internal/trace/
	$(GO) test -fuzz FuzzCacheGet -fuzztime 10s -fuzzminimizetime 1s ./internal/runner/

# Trace record/replay round trip through the fttrace CLI: generate a text
# trace, record it to FTT1, decode the recording back to text (must be
# byte-identical), check all three carry one fingerprint, and replay both
# formats on the same NoC (streaming vs in-memory) expecting identical
# simulation output lines.
TRACE_RT_DIR ?= .trace-roundtrip
trace-roundtrip:
	rm -rf $(TRACE_RT_DIR) && mkdir -p $(TRACE_RT_DIR)
	$(GO) run ./cmd/fttrace -suite spmv -bench add20 -n 4 > $(TRACE_RT_DIR)/t.trace
	$(GO) run ./cmd/fttrace -record $(TRACE_RT_DIR)/t.ftt -from $(TRACE_RT_DIR)/t.trace
	$(GO) run ./cmd/fttrace -suite spmv -bench add20 -n 4 -record $(TRACE_RT_DIR)/gen.ftt
	cmp $(TRACE_RT_DIR)/t.ftt $(TRACE_RT_DIR)/gen.ftt
	$(GO) run ./cmd/fttrace -decode $(TRACE_RT_DIR)/t.ftt | cmp - $(TRACE_RT_DIR)/t.trace
	$(GO) run ./cmd/fttrace -fingerprint $(TRACE_RT_DIR)/t.trace > $(TRACE_RT_DIR)/fp.txt
	$(GO) run ./cmd/fttrace -fingerprint $(TRACE_RT_DIR)/t.ftt | cmp - $(TRACE_RT_DIR)/fp.txt
	$(GO) run ./cmd/fttrace -replay $(TRACE_RT_DIR)/t.trace -noc ft -n 4 -d 2 -r 1 > $(TRACE_RT_DIR)/replay.txt
	$(GO) run ./cmd/fttrace -replay $(TRACE_RT_DIR)/t.ftt -noc ft -n 4 -d 2 -r 1 | cmp - $(TRACE_RT_DIR)/replay.txt
	rm -rf $(TRACE_RT_DIR)

# Daemon load test: ftload self-hosts an ftserve daemon and hammers it with
# concurrent clients posting mixed valid/duplicate/malformed specs, then
# asserts bounded p99 admission latency, zero dropped accepted jobs, exact
# 429/400 accounting against /metrics, panic isolation, and a lossless
# drain. serve-load-smoke is the short configuration `make verify` runs.
serve-load:
	$(GO) run ./cmd/ftload -clients 8 -requests 25

serve-load-smoke:
	$(GO) run ./cmd/ftload -clients 4 -requests 10 -max-p99 2s > /dev/null

# Prometheus exposition lint: a test-embedded 0.0.4 text parser scrapes the
# LIVE ops server and ftserve /metrics endpoints and rejects anything a real
# scraper would choke on — samples without TYPE lines, bad label escaping,
# duplicate or interleaved families, NaN/negative counters, non-monotone
# histogram buckets (the rejection cases are themselves tested).
metrics-lint:
	$(GO) test -count=1 -run 'TestMetricsLint|TestPromLint' ./internal/monitor/

# Observability smoke: a short run with the ops server, flight recorder,
# packet tracer (both encodings), link stats and windowed metrics all armed
# on one observer stack, and a sweep with span tracing, must still exit
# cleanly (the e2e HTTP assertions live in internal/monitor's tests; this
# catches CLI wiring rot).
SMOKE_OUT = .smoke.trace.json .smoke.events.jsonl .smoke.links.csv .smoke.metrics.csv .smoke.spans.trace.json
monitor-smoke:
	$(GO) run ./cmd/ftsim -n 4 -packets 100 -http 127.0.0.1:0 -flight-recorder 64 \
		-trace-out .smoke.trace.json -trace-jsonl .smoke.events.jsonl \
		-link-stats .smoke.links.csv -metrics-out .smoke.metrics.csv > /dev/null
	$(GO) run ./cmd/ftexp -quick -run fig11 -no-cache -span-trace .smoke.spans.trace.json > /dev/null
	rm -f $(SMOKE_OUT)

verify: build fmt vet test race race-shards sweep-quick trace-roundtrip monitor-smoke serve-load-smoke metrics-lint
