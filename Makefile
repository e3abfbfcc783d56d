# Development gates for the TVP reproduction.
#
#   make check        # what CI runs: fmt-check, vet, lint, build, race on
#                     # the concurrency-sensitive packages and the
#                     # run-ahead producer's tests, full test
#                     # suite, verify-suite, serve-smoke, bench-smoke,
#                     # fuzz-smoke, bench-guard, report-diff
#   make fmt-check    # fail if any Go file outside the analyzer fixtures
#                     # is not gofmt-clean
#   make lint         # run tvplint (see internal/analysis) over the module
#   make bench        # the E1–E14 benchmark sweep + simulator throughput
#   make bench-guard  # fail if hot-path allocations regress past baseline
#   make fuzz-smoke   # short differential-fuzzing pass per native target
#   make verify-suite # encode + statically verify every built-in workload
#   make serve-smoke  # end-to-end tvpd daemon check: endpoints, SIGTERM
#                     # drain, cross-process persistent store sharing
#   make bench-smoke  # the benchmark's own tests: cmd/tvpbench unit tests
#                     # and a 1/50-scale run of all four workloads
#   make report-diff  # fail unless a default tvpreport run reproduces
#                     # docs/report.txt byte for byte
#   make report       # regenerate the full EXPERIMENTS.md report
#   make loc          # non-test Go line counts: all lines, and lines
#                     # that are neither blank nor comment-only

GO ?= go

# Per-target budget for the fuzz smoke pass. The committed seed corpus
# under internal/fuzzgen/testdata/fuzz is always replayed first (also by
# plain `go test`), then each target explores new inputs for this long.
FUZZ_TIME ?= 10s

# Allocation ceiling for BenchmarkSimThroughput with telemetry detached
# (allocs/op at -benchtime 30x). The recorded baseline was 261, the top
# of the 259–261 measured in BENCH_PR14.json; with the run-ahead
# producer (its two channels and goroutine) it measures 261–262
# (BENCH_PR16.json), and the ceiling is unchanged. The ceiling carries
# headroom because the absolute count drifts by ±1–2 across machines/Go
# patch releases, while any real hot-path regression (a per-instruction or
# per-cycle allocation) blows past it by thousands. The telemetry layer
# must stay nil-guarded off the hot path, so this number must not grow.
BENCH_GUARD_ALLOCS ?= 266

# Per-workload throughput floors, in simulated MIPS. The two benchmarks
# bound opposite regimes: BenchmarkSimThroughput (648_exchange2_s,
# cache-resident, issue-bound) is dominated by the wakeup scoreboard,
# while BenchmarkSimThroughputLowIPC (605_mcf_s, DRAM-bound) is dominated
# by cycle skipping and commit-side work — a regression confined to
# either mechanism trips exactly one floor, which is why the guard checks
# both instead of one blended number. Recorded PR-9 baselines
# (BENCH_PR9.json, interleaved protocol): 4.8 MIPS high-IPC, 2.7 MIPS
# low-IPC; 10% tolerance under those (4.3 / 2.4) is the floor to use on a
# quiet dedicated machine. The shipped defaults sit lower because shared
# 1-vCPU containers swing ±35% minute-to-minute (see the BENCH_PR6.json /
# BENCH_PR9.json "noise" notes) — they still trip on any structural
# regression (losing the scoreboard, cycle skipping, or the pointer-free
# layouts lands the affected benchmark well under its floor), while not
# flapping on a slow host minute. The run-ahead frontend raised both by
# the geomean of its paired ratios, 1.062 for each benchmark over 10
# interleaved pairs (BENCH_PR16.json), rounded down: 3.10 → 3.29 and
# 1.70 → 1.80.
BENCH_GUARD_MIPS ?= 3.29
BENCH_GUARD_MIPS_LOWIPC ?= 1.80

.PHONY: check fmt-check vet lint build test race bench bench-guard bench-smoke fuzz-smoke verify-suite serve-smoke report-diff report loc

# lint runs before test so an invariant violation fails fast, before the
# (much slower) full suite.
check: fmt-check vet lint build race test verify-suite serve-smoke bench-smoke fuzz-smoke bench-guard report-diff

# The analyzer fixtures under internal/analysis/testdata stay as written:
# their layout is part of what the golden tests pin.
fmt-check:
	@out=$$(gofmt -l . | grep -v '^internal/analysis/testdata/'); \
	if [ -n "$$out" ]; then echo "fmt-check: not gofmt-clean (run gofmt -w):" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# tvplint: the project-specific analyzer suite (fingerprintsafe,
# hotpathalloc, detmap, statscomplete, nondet). See internal/analysis
# and CONTRIBUTING.md for the invariants and the escape hatch.
lint:
	$(GO) run ./cmd/tvplint

build:
	$(GO) build ./...

# The run cache, the report fan-out, the telemetry sampler, the
# daemon's two-tier store, and each core's run-ahead producer goroutine
# are the concurrency hot spots: keep them race-clean at the short test
# length. The pipeline's full suite is slow under -race, so only the
# producer's own tests run there.
race:
	$(GO) test -race ./internal/simcache ./internal/report ./internal/obs ./internal/serve ./internal/store
	$(GO) test -race ./internal/pipeline -run '^TestRunAhead'

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Guard the simulator hot path in both directions and both IPC regimes:
# telemetry disabled must cost nothing (allocs/op on the high-IPC run may
# not exceed the recorded ceiling, see BENCH_PR1.json / BENCH_PR2.json),
# and per-workload throughput may not fall under either MIPS floor (see
# BENCH_PR9.json and the BENCH_GUARD_MIPS notes above).
bench-guard:
	@out=$$($(GO) test -bench='^BenchmarkSimThroughput(LowIPC)?$$' -benchmem -benchtime 30x -run='^$$' . | tee /dev/stderr); \
	allocs=$$(printf '%s\n' "$$out" | awk '$$1 ~ /^BenchmarkSimThroughput(-[0-9]+)?$$/ { for (i=1; i<NF; i++) if ($$(i+1) == "allocs/op") print $$i }'); \
	mips=$$(printf '%s\n' "$$out" | awk '$$1 ~ /^BenchmarkSimThroughput(-[0-9]+)?$$/ { for (i=1; i<NF; i++) if ($$(i+1) == "MIPS") print $$i }'); \
	lowmips=$$(printf '%s\n' "$$out" | awk '$$1 ~ /^BenchmarkSimThroughputLowIPC(-[0-9]+)?$$/ { for (i=1; i<NF; i++) if ($$(i+1) == "MIPS") print $$i }'); \
	if [ -z "$$allocs" ]; then echo "bench-guard: could not parse allocs/op" >&2; exit 1; fi; \
	if [ -z "$$mips" ] || [ -z "$$lowmips" ]; then echo "bench-guard: could not parse MIPS" >&2; exit 1; fi; \
	if [ "$$allocs" -gt "$(BENCH_GUARD_ALLOCS)" ]; then \
		echo "bench-guard: FAIL — $$allocs allocs/op exceeds baseline $(BENCH_GUARD_ALLOCS)" >&2; exit 1; \
	fi; \
	if awk -v m="$$mips" -v f="$(BENCH_GUARD_MIPS)" 'BEGIN { exit !(m+0 < f+0) }'; then \
		echo "bench-guard: FAIL — high-IPC $$mips MIPS under floor $(BENCH_GUARD_MIPS) (override BENCH_GUARD_MIPS on slow/shared hosts)" >&2; exit 1; \
	fi; \
	if awk -v m="$$lowmips" -v f="$(BENCH_GUARD_MIPS_LOWIPC)" 'BEGIN { exit !(m+0 < f+0) }'; then \
		echo "bench-guard: FAIL — low-IPC $$lowmips MIPS under floor $(BENCH_GUARD_MIPS_LOWIPC) (override BENCH_GUARD_MIPS_LOWIPC on slow/shared hosts)" >&2; exit 1; \
	fi; \
	echo "bench-guard: OK — $$allocs allocs/op (ceiling $(BENCH_GUARD_ALLOCS)), high-IPC $$mips MIPS (floor $(BENCH_GUARD_MIPS)), low-IPC $$lowmips MIPS (floor $(BENCH_GUARD_MIPS_LOWIPC))"

# Differential fuzzing smoke: go test accepts one -fuzz target per
# invocation, so each native target gets its own short exploration run.
# FuzzCrossCheck drives random programs through the pipeline against the
# shadow-emulator oracle; FuzzMetamorphic asserts timing-configuration
# changes never alter architectural results; FuzzVerify mutates encoded
# binaries against the static verifier's soundness contract (an accepted
# binary must execute without panics or out-of-window accesses).
fuzz-smoke:
	$(GO) test ./internal/fuzzgen -run='^$$' -fuzz='^FuzzCrossCheck$$' -fuzztime=$(FUZZ_TIME)
	$(GO) test ./internal/fuzzgen -run='^$$' -fuzz='^FuzzMetamorphic$$' -fuzztime=$(FUZZ_TIME)
	$(GO) test ./internal/isa/verify -run='^$$' -fuzz='^FuzzVerify$$' -fuzztime=$(FUZZ_TIME)

# Binary-ingestion gate: every built-in workload must round-trip through
# the TVPB container and come back through the static verifier with zero
# Error findings, and the committed promoted corpus must match the
# generator bit-for-bit (see internal/workload/ingest_test.go).
verify-suite:
	$(GO) test ./internal/workload -run='^(TestEncodedSuiteVerifies|TestPromotedCorpusBitExact)$$' -count=1

# Daemon smoke: build the real tvpd binary, start it on a free port,
# exercise run/sweep/status (with a retry/timeout handshake on stderr's
# readiness line), assert graceful SIGTERM drain, and prove the
# persistent store is shared across two sequential processes — the
# second serves a previously computed point from disk with zero
# simulation work and byte-identical RunRecord bytes (see
# cmd/tvpd/main_test.go).
serve-smoke:
	$(GO) test ./cmd/tvpd -run='^(TestServeSmoke|TestStoreSharedAcrossProcesses)$$' -count=1 -v

# Benchmark smoke: cmd/tvpbench is a Go module of its own, outside the
# root ./..., so `make test` never reaches it. Its tests check the
# percentile and self-time rules and the seeded schedules, and run every
# workload at 1/50 scale against BENCHMARK.json (~10 s).
bench-smoke:
	cd cmd/tvpbench && $(GO) test ./...

# Same bits: the default report must regenerate docs/report.txt exactly.
# Any simulated-result change shows up here as a diff; a change that
# means to move the numbers regenerates the file in the same commit.
report-diff:
	$(GO) run ./cmd/tvpreport | diff -u docs/report.txt -

report:
	$(GO) run ./cmd/tvpreport -cachestats

# The line counts CHANGES.md entries quote, over tracked *.go files
# except _test.go files, anything under a testdata/ directory, and the
# benchmark module cmd/tvpbench/.
loc:
	@git ls-files '*.go' | grep -v -E '_test\.go$$|(^|/)testdata/|^cmd/tvpbench/' | xargs cat | \
	awk '{ all++ } !/^[[:space:]]*(\/\/|$$)/ { code++ } END { printf "loc: %d lines, %d code lines (neither blank nor comment-only)\n", all, code }'
