GO ?= go

.PHONY: build test race bench bench-json bench-check bench-obs vet profile

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Figure-regeneration benchmarks (bench-friendly scale; full scale via
# cmd/acqbench -rows 1000000). The parallel-exploration sweep is
# BenchmarkParallelExplore.
bench:
	$(GO) test -run xxx -bench=. -benchmem .

# Machine-readable baselines: the fig. 8 ratio sweep, the cached
# repeated-workload study, the shard sweep and the clustering studies — figures, config and the metric registry snapshot
# in one JSON file each. The committed BENCH_*.json files are the
# reference artifacts; regenerate after a perf-relevant change and
# compare before committing. Every write goes through schema validation
# (harness.ValidateResults) plus a temp-file rename, and the final
# bench-check pass re-validates the files on disk, so a failed run can
# never leave a malformed or truncated artifact behind.
bench-json:
	$(GO) run ./cmd/acqbench -experiment fig8 -rows 20000 -json BENCH_baseline.json
	$(GO) test -run xxx -bench BenchmarkRepeatedWorkload -benchtime 1x .
	$(GO) run ./cmd/acqbench -experiment repeated -cache -rows 20000 -json BENCH_cache.json
	$(GO) run ./cmd/acqbench -experiment shards -rows 100000 -json BENCH_shards.json
	$(GO) run ./cmd/acqbench -experiment autocluster -rows 20000 -json BENCH_autocluster.json
	$(GO) run ./cmd/acqbench -experiment zorder -rows 20000 -json BENCH_zorder.json
	$(GO) run ./cmd/benchcheck BENCH_*.json

# Validate the committed benchmark artifacts against the harness
# results schema without regenerating them.
bench-check:
	$(GO) run ./cmd/benchcheck BENCH_*.json

# Metrics-overhead guard: the exploration sweep bare vs with a live
# registry/observer attached. The two ns/op columns should be within
# noise of each other.
bench-obs:
	$(GO) test -run xxx -bench='BenchmarkParallelExplore(Observed)?$$' -benchmem .

# Capture a 10s CPU profile from a live acqbench run through the pprof
# endpoint the observability layer serves. Writes cpu.pprof; inspect
# with `go tool pprof cpu.pprof`.
PROFILE_ADDR ?= 127.0.0.1:8099
profile:
	$(GO) run ./cmd/acqbench -experiment fig8 -rows 50000 -metrics-addr $(PROFILE_ADDR) & \
	BENCH_PID=$$!; \
	sleep 2; \
	curl -fsS -o cpu.pprof "http://$(PROFILE_ADDR)/debug/pprof/profile?seconds=10" || { kill $$BENCH_PID; exit 1; }; \
	kill $$BENCH_PID 2>/dev/null; \
	echo "wrote cpu.pprof"
