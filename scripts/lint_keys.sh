#!/bin/sh
# lint_keys.sh — grep lint: internal/engine/keys.go is the one place that
# decides how rows are put into groups. Every grouping operator — grouped
# aggregation, DISTINCT, UNION, INTERSECT/EXCEPT, window partitions — builds
# a key set and takes its groups from keySet.group; an operator that builds
# a key string per row (Value.Key, Value.AppendKey) and compares or hashes
# those has a grouping of its own, and compilation can't catch that drift.
# So in the package's non-test files the two calls may appear only in
# keys.go and in the DISTINCT aggregates' sets of folded values
# (foldAggregate, groupFold).
set -eu
cd "$(dirname "$0")/.."

bad=$(awk '
  FNR == 1 { fn = "" }
  /^func / { fn = $0 }
  /\.AppendKey\(|\.Key\(\)/ {
    if (FILENAME ~ /\/keys\.go$/) next
    if (fn ~ /^func foldAggregate\(/ || fn ~ /^func \([a-z]+ \*groupFold\) /) next
    print FILENAME ":" FNR ": " $0
  }
' $(ls internal/engine/*.go | grep -v '_test\.go$'))

if [ -n "$bad" ]; then
  echo "$bad"
  echo "lint: a key string built outside keys.go; group rows through keySet.group"
  exit 1
fi
echo "lint_keys: OK (rows are grouped in internal/engine/keys.go only)"
