#!/bin/sh
# lint_sinks.sh — grep lint: a finished query is accounted in one place.
# The catalog hands its entry to History.Record, and the history's fold
# observes the per-query instruments of obs.PlatformMetrics — the query
# counters and latency histograms, parallel queries, the cache hit/miss
# counts, history records and slow queries — beside its aggregates and usage
# accounts. A second sink elsewhere would count the same query on another
# path. So non-test Go code outside internal/history and internal/obs names
# none of those instruments.
#
# Most of the names are the instruments' alone. RowsReturned and CacheHits
# are also fields of an entry or a summary, and Usage a method, so those
# three are flagged only where used as an instrument (.Inc, .Add, .Observe,
# .With, .Value, .Record) or read off a metrics bundle.
set -eu
cd "$(dirname "$0")/.."

only='QueriesTotal|QueriesFailed|QueriesAborted|RowsScanned|CompileSeconds|ExecSeconds|ParallelQueries|CacheMisses|CacheHitSeconds|HistoryRecords|SlowQueries'
shared='RowsReturned|CacheHits|Usage'
files=$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' ! -path './internal/history/*' ! -path './internal/obs/*' -print | sort)

bad=$(grep -nE "\.($only)\b|\.($shared)\.(Inc|Add|Observe|With|Value|Record)\(|[Mm]etrics(\(\))?\.($shared)\b" $files || true)

if [ -n "$bad" ]; then
  echo "$bad"
  echo "lint: a per-query instrument named outside internal/history and internal/obs; hand the entry to History.Record, whose fold observes it"
  exit 1
fi
echo "lint_sinks: OK (per-query instruments are observed only by the history's fold)"
