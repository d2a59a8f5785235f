# Verification targets. `make verify` is the tier-1 gate plus static
# analysis and the race detector (the sweep orchestrator in internal/runner
# fans simulations across worker goroutines that write shared result slices,
# so the race run is not optional hygiene).

GO ?= go

# Cache directory used by the warm-cache CI check (wiped before the cold
# pass so the assertion is meaningful).
SWEEP_CACHE ?= .ftcache-quick

.PHONY: build fmt test vet race fuzz verify loc bench profile sweep-quick monitor-smoke trace-roundtrip metrics-lint

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

# CPU profiles of the engine at saturation (BenchmarkSimSaturation: Hoplite
# 16×16, RANDOM at rate 1.0) and of one FastTrack router cycle
# (BenchmarkRouterStep), one thread each, written to PROFILE_DIR with the top
# of each printed — the profile a Step-kernel or engine change quotes.
PROFILE_DIR ?= .profile
PROFILE_TOP = $(GO) tool pprof -top -nodecount 25
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench '^BenchmarkSimSaturation$$' -benchtime 3s -cpu 1 -o $(PROFILE_DIR)/bench.test \
		-cpuprofile $(PROFILE_DIR)/sim-saturation.pprof .
	$(PROFILE_TOP) $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/sim-saturation.pprof
	$(GO) test -run '^$$' -bench '^BenchmarkRouterStep$$' -benchtime 3s -cpu 1 -o $(PROFILE_DIR)/bench.test \
		-cpuprofile $(PROFILE_DIR)/router-step.pprof .
	$(PROFILE_TOP) $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/router-step.pprof

# Warm-cache round trip: the quick sweep of every experiment, the paper's and
# the ext- extensions, runs cold into a fresh cache and re-runs with
# -assert-cached, which exits non-zero if any simulation had to execute —
# proving repeated sweeps are answered entirely from disk. The two
# renders must then match byte for byte once SWEEP_FIGS drops the wall-clock
# "(… completed in …)" lines and the "N simulated, M from cache" tally: the
# per-job cold path and the cache render identical figures.
SWEEP_OUT ?= .sweep-quick
SWEEP_FIGS = grep -vE '^\(.* completed in .*\)$$|^[0-9]+ simulated, [0-9]+ from cache$$'
sweep-quick:
	rm -rf $(SWEEP_CACHE) $(SWEEP_OUT) && mkdir -p $(SWEEP_OUT)
	$(GO) run ./cmd/ftexp -quick -run all -cache-dir $(SWEEP_CACHE) > $(SWEEP_OUT)/cold.txt
	$(GO) run ./cmd/ftexp -quick -run all -cache-dir $(SWEEP_CACHE) -assert-cached > $(SWEEP_OUT)/warm.txt
	$(SWEEP_FIGS) $(SWEEP_OUT)/cold.txt > $(SWEEP_OUT)/cold.figs
	$(SWEEP_FIGS) $(SWEEP_OUT)/warm.txt | cmp - $(SWEEP_OUT)/cold.figs
	rm -rf $(SWEEP_CACHE) $(SWEEP_OUT)

# Short fuzz pass over the property fuzzers (noc.RingDelta, FastTrack
# topology construction, the daemon's JSON job-spec decoder, the text and
# FTT1 binary trace decoders, the trace replay against its test-only oracle
# at binding and non-binding windows, a result-cache entry file of arbitrary
# bytes, the engine's change-driven offer path against the same workload
# with its change report hidden, and the synthetic generator against its
# test-only per-cycle oracle); extend -fuzztime for deeper runs.
# FuzzCacheGet pays file I/O per input, so its minimizer is capped or it would
# spend the whole pass shrinking one.
fuzz:
	$(GO) test -fuzz FuzzRingDelta -fuzztime 10s ./internal/noc/
	$(GO) test -fuzz FuzzTopology -fuzztime 10s ./internal/fasttrack/
	$(GO) test -fuzz FuzzDecodeJobSpec -fuzztime 10s ./internal/cliflags/
	$(GO) test -fuzz '^FuzzRead$$' -fuzztime 10s ./internal/trace/
	$(GO) test -fuzz FuzzReadBinary -fuzztime 10s ./internal/trace/
	$(GO) test -fuzz FuzzReplayVsOracle -fuzztime 10s ./internal/trace/
	$(GO) test -fuzz FuzzCacheGet -fuzztime 10s -fuzzminimizetime 1s ./internal/runner/
	$(GO) test -fuzz FuzzChangeReport -fuzztime 10s ./internal/sim/
	$(GO) test -fuzz FuzzSyntheticVsOracle -fuzztime 10s ./internal/traffic/

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

# Prometheus exposition lint: a test-embedded 0.0.4 text parser scrapes the
# LIVE ops server and ftserve /metrics endpoints and rejects anything a real
# scraper would choke on — samples without TYPE lines, bad label escaping,
# duplicate or interleaved families, NaN/negative counters, non-monotone
# histogram buckets (the rejection cases are themselves tested).
metrics-lint:
	$(GO) test -count=1 -run 'TestMetricsLint|TestPromLint' ./internal/monitor/

# Observability smoke: a short run with the ops server, flight recorder,
# packet tracer, link stats and windowed metrics all armed on one observer
# stack, and a sweep with span tracing, must still exit cleanly and leave
# every output file non-empty (the e2e HTTP assertions
# live in internal/monitor's tests; this catches CLI wiring rot).
SMOKE_OUT = .smoke.trace.json .smoke.links.csv .smoke.metrics.csv .smoke.spans.trace.json
monitor-smoke:
	$(GO) run ./cmd/ftsim -n 4 -packets 100 -http 127.0.0.1:0 -flight-recorder 64 \
		-trace-out .smoke.trace.json \
		-link-stats .smoke.links.csv -metrics-out .smoke.metrics.csv > /dev/null
	$(GO) run ./cmd/ftexp -quick -run fig11 -no-cache -span-trace .smoke.spans.trace.json > /dev/null
	for f in $(SMOKE_OUT); do test -s $$f || { echo "monitor-smoke: $$f is empty or missing"; exit 1; }; done
	rm -f $(SMOKE_OUT)

verify: build fmt vet test race sweep-quick trace-roundtrip monitor-smoke metrics-lint
