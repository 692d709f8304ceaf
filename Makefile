GO ?= go

.PHONY: all build vet test race bench bench-test bench-smoke fuzz lint-handlers lint-bind lint-lock lint-keys lint-rows lint-plan lint-hooks lint-sinks lint-coerce lint-measure lint-tree lint-csv report-check ci

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

# Grep lint: queries read a published catalog state, so the query-path files
# of internal/catalog take no catalog lock, and no helper there carries a
# Locked suffix (see the script header).
lint-lock:
	sh scripts/lint_lock.sh

# Grep lint: in internal/engine only keys.go turns values into key strings
# and orders rows; every grouping operator takes its groups from
# keySet.group, and no other file calls sort.Slice or sort.SliceStable (see
# the script header).
lint-keys:
	sh scripts/lint_keys.sh

# Grep lint: in internal/engine joins, projections, filters, sorts and tops
# hand on row indices and column maps; only materialize builds a joined or
# gathered row; storage.Table keeps no row copy, and only internal/storage,
# bench/ and tests call its Scan/ScanSegments shims (see the script header).
lint-rows:
	sh scripts/lint_rows.sh

# Grep lint: in internal/engine only rewrite.go places conjuncts into scans
# and picks join, aggregate and sort strategies; the builder emits the plain
# tree (see the script header).
lint-plan:
	sh scripts/lint_plan.sh

# Grep lint: internal/engine declares no process-wide hook (no Set...Hook
# function, no atomic.Pointer to a func); an execution's measurements reach
# the catalog through what it returns (see the script header).
lint-hooks:
	sh scripts/lint_hooks.sh

# Grep lint: a finished query is accounted once, by the history's fold;
# no non-test code outside internal/history and internal/obs names a
# per-query instrument of obs.PlatformMetrics (see the script header).
lint-sinks:
	sh scripts/lint_sinks.sh

# Grep lint: a column compared with a literal coerces by sqltypes.NewProbe
# alone; internal/engine casts only for CAST and arithmetic and parses no
# literal itself (see the script header).
lint-coerce:
	sh scripts/lint_coerce.sh

# Grep lint: every execution in internal/engine is measured and accounted
# on one path; nothing compares a Progress with nil but Execute's default,
# and no accounting/measuring gate exists (see the script header).
lint-measure:
	sh scripts/lint_measure.sh

# Grep lint: one plan tree carries a query's estimates and its actuals;
# only internal/plan splices invisible operators and declares the trace
# wire form (see the script header).
lint-tree:
	sh scripts/lint_tree.sh

# Grep lint: an upload is read by internal/ingest's one tokenizer;
# encoding/csv is its test oracle, and no non-test Go outside bench/
# imports it (see the script header).
lint-csv:
	sh scripts/lint_csv.sh

# A 10 s slice of every fuzz target (go test -fuzz takes one target and
# one package per run).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCacheKey$$' -fuzztime 10s ./internal/qcache/
	$(GO) test -run '^$$' -fuzz '^FuzzCacheOps$$' -fuzztime 10s ./internal/qcache/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/sqlparser/
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime 10s ./internal/sqlparser/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadBytes$$' -fuzztime 10s ./internal/ingest/
	$(GO) test -run '^$$' -fuzz '^FuzzTokenizer$$' -fuzztime 10s ./internal/ingest/
	$(GO) test -run '^$$' -fuzz '^FuzzParseDateTime$$' -fuzztime 10s ./internal/sqltypes/
	$(GO) test -run '^$$' -fuzz '^FuzzProbe$$' -fuzztime 10s ./internal/sqltypes/
	$(GO) test -run '^$$' -fuzz '^FuzzParseNumber$$' -fuzztime 10s ./internal/sqltypes/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAll$$' -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzTableJSON$$' -fuzztime 10s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzKeyOrder$$' -fuzztime 10s ./internal/engine/
	$(GO) test -run '^$$' -fuzz '^FuzzKeyOrderSegments$$' -fuzztime 10s ./internal/engine/
	$(GO) test -run '^$$' -fuzz '^FuzzViewMerge$$' -fuzztime 10s ./internal/engine/
	$(GO) test -run '^$$' -fuzz '^FuzzNoREC$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzJobTable$$' -fuzztime 10s ./internal/jobs/
	$(GO) test -run '^$$' -fuzz '^FuzzParseTraceparent$$' -fuzztime 10s ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzEntryLine$$' -fuzztime 10s ./internal/history/

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

# The paper's tables and figures from the seed-1 corpora must come out as
# committed in report_seed1.txt, but for the one wall-clock row (~14 s).
report-check:
	$(GO) run ./cmd/workload-report -seed 1 2>/dev/null | diff -I '^Runtime  ' report_seed1.txt -

ci: vet build lint-handlers lint-bind lint-lock lint-keys lint-rows lint-plan lint-hooks lint-sinks lint-coerce lint-measure lint-tree lint-csv race bench-test report-check
