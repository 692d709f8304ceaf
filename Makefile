GO ?= go

.PHONY: all build vet test race bench bench-insights bench-wal bench-parallel bench-cache bench-trace bench-ops bench-load bench-columnar smoke-load smoke-cluster fuzz-cache lint-handlers ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Grep lint: every HTTP handler must be served through the middleware
# that records the request-duration histogram (see the script header).
lint-handlers:
	sh scripts/lint_http_metrics.sh

# A short fuzz pass over the cache-key codec: round-trips and
# injectivity across (user, sql, maxRows, version-vector) tuples.
fuzz-cache:
	$(GO) test -run '^$$' -fuzz FuzzCacheKey -fuzztime 30s ./internal/qcache/

# The benchmarks behind BENCH_obs.json (see README "Observability").
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkQuerySeekVsScan|BenchmarkViewChainDepth|BenchmarkPreviewVsQuery|BenchmarkPlanExtraction' -benchtime 200ms -count 3 .

# The benchmark behind BENCH_insights.json: history-recording overhead on
# the point-query fast path.
bench-insights:
	$(GO) test -run '^$$' -bench BenchmarkHistoryRecordingOverhead -benchtime 300ms -count 5 .

# The benchmark behind BENCH_wal.json: group-commit vs per-record fsync
# append throughput, and cold recovery of a 100k-record log (see README
# "Durability").
bench-wal:
	$(GO) run ./cmd/walbench -out BENCH_wal.json
	@cat BENCH_wal.json

# The benchmark behind BENCH_parallel.json: serial vs parallel execution
# of scan-, join-, aggregate- and sort-heavy queries, with the result
# identity check built in (see README "Parallel execution").
bench-parallel:
	$(GO) run ./cmd/parbench -out BENCH_parallel.json
	@cat BENCH_parallel.json

# The benchmark behind BENCH_cache.json: cold (cache bypassed) vs warm
# (served from the version-fenced result cache), byte-identity verified
# on every sample (see README "Result caching").
bench-cache:
	$(GO) run ./cmd/cachebench -out BENCH_cache.json
	@cat BENCH_cache.json

# The benchmark behind BENCH_trace.json: span tracing off vs on over the
# full loopback-HTTP service path (paired interleaved sampling), plus the
# tail-sampling retention demo (see README "Observability").
bench-trace:
	$(GO) run ./cmd/tracebench -out BENCH_trace.json
	@cat BENCH_trace.json

# The benchmark behind BENCH_ops.json: the live-operations layer (registry,
# phase/progress publication, memory accounting) against a bare point query
# and the full service path, plus the mid-flight kill demo (see README
# "Live operations").
bench-ops:
	$(GO) run ./cmd/opsbench -out BENCH_ops.json
	@cat BENCH_ops.json

# The benchmark behind BENCH_load.json: a ramp of offered-load levels
# replayed open-loop against a self-hosted server, per-template latency
# quantiles measured from scheduled start (see README "Load testing").
bench-load:
	$(GO) run ./cmd/loadgen -levels 1,2,4 -out BENCH_load.json
	@cat BENCH_load.json

# The benchmark behind BENCH_columnar.json: row-at-a-time vs vectorized
# execution of scan- and aggregate-heavy queries plus merge-append
# throughput, byte-identity verified per query; -check enforces the
# speedup floor and that zone maps actually skipped segments (see README
# "Columnar storage").
bench-columnar:
	$(GO) run ./cmd/colbench -check -out BENCH_columnar.json
	@cat BENCH_columnar.json

# The CI load-smoke gate: a tiny join-heavy workload against an
# in-process server, ~10s wall clock; fails unless ops completed with
# zero 5xx and the sqlshare_overload_* gauges moved under load.
smoke-load:
	$(GO) run ./cmd/loadgen -smoke -out /tmp/BENCH_load_smoke.json

# The CI cluster-smoke gate: a 3-node in-process cluster behind the
# router serving a loadgen workload through two rolling primary kills
# (demote -> drain -> promote -> repoint); fails on any HTTP 5xx or any
# acknowledged write missing from the final dataset listing.
smoke-cluster:
	$(GO) run ./cmd/clustersmoke -ops 200 -rate 40 -kills 2

ci: vet build lint-handlers race
