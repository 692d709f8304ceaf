GO ?= go

.PHONY: all build vet test race bench bench-test bench-smoke smoke-load smoke-cluster fuzz lint-handlers lint-bind lint-keys lint-rows report-check ci

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

# Grep lint: in internal/catalog only bind.go binds names that came out of
# SQL and compiles against them, and no file outside internal/engine keeps a
# compiled plan (see the script header).
lint-bind:
	sh scripts/lint_bind.sh

# Grep lint: in internal/engine only keys.go turns values into key strings;
# every grouping operator takes its groups from keySet.group (see the
# script header).
lint-keys:
	sh scripts/lint_keys.sh

# Grep lint: in internal/engine joins, projections, filters, sorts and tops
# hand on row indices and column maps; only materialize builds a joined or
# gathered row (see the script header).
lint-rows:
	sh scripts/lint_rows.sh

# A 10 s slice of every fuzz target (go test -fuzz takes one target and
# one package per run).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCacheKey$$' -fuzztime 10s ./internal/qcache/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/sqlparser/
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime 10s ./internal/sqlparser/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadBytes$$' -fuzztime 10s ./internal/ingest/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAll$$' -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzReplStream$$' -fuzztime 10s ./internal/repl/
	$(GO) test -run '^$$' -fuzz '^FuzzKeyOrder$$' -fuzztime 10s ./internal/engine/
	$(GO) test -run '^$$' -fuzz '^FuzzViewMerge$$' -fuzztime 10s ./internal/engine/

# The repo's one benchmark (BENCHMARK.json, bench/README.md): four
# workloads over loopback REST against a server built from this checkout;
# prints every end-to-end and per-layer metric and writes bench/out/.
bench:
	bash bench/run.sh

# bench/ is a nested module, outside the root ./...: vet and unit-test it
# against this checkout, which is what breaks when a catalog, obs or server
# export it uses moves.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The same harness as a gate: one short round per workload, a few seconds;
# exits non-zero on a failed op, a result that differs from the
# row/DOP-1/no-cache oracle, or an acked write lost across kill -9.
bench-smoke:
	bash bench/run.sh -quick -trace 0

# The CI load-smoke gate: a tiny join-heavy workload against an
# in-process server, ~10s wall clock; fails unless ops completed with
# zero 5xx and the sqlshare_overload_* gauges moved under load.
smoke-load:
	$(GO) run ./cmd/loadgen -smoke -out /tmp/loadgen_smoke.json

# The CI cluster-smoke gate: a 3-node in-process cluster behind the
# router serving a loadgen workload through two rolling primary kills
# (demote -> drain -> promote -> repoint); fails on any HTTP 5xx or any
# acknowledged write missing from the final dataset listing.
smoke-cluster:
	$(GO) run ./cmd/clustersmoke -ops 200 -rate 40 -kills 2

# The paper's tables and figures from the seed-1 corpora must come out as
# committed in report_seed1.txt, but for the one wall-clock row (~14 s).
report-check:
	$(GO) run ./cmd/workload-report -seed 1 2>/dev/null | diff -I '^Runtime  ' report_seed1.txt -

ci: vet build lint-handlers lint-bind lint-keys lint-rows race bench-test report-check
