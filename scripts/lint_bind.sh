#!/bin/sh
# lint_bind.sh — grep lint: internal/catalog/bind.go is the one place that
# decides which dataset a name in SQL means and who must hold a grant on it.
# A statement path that calls engine.Compile or sqlparser.ReferencedTables
# itself has hand-rolled its own bind → authorize → compile prefix, and
# compilation can't catch that drift — so no other non-test file in the
# package may make either call.
#
# What bind.go compiles is executed once and dropped: an engine.Plan carries
# the once-per-execution results of its uncorrelated subplans (see its doc
# comment), so a plan that outlives its execution replays them. No non-test
# file outside internal/engine may therefore declare a struct field, map,
# slice or channel of *engine.Plan — the places a plan could be kept.
set -eu
cd "$(dirname "$0")/.."
fail=0

for call in 'engine\.Compile(' 'sqlparser\.ReferencedTables('; do
  grep -q "$call" internal/catalog/bind.go || {
    echo "lint: internal/catalog/bind.go no longer calls $call — has the prefix moved?"
    fail=1
  }
  for f in internal/catalog/*.go; do
    case "$f" in *_test.go | internal/catalog/bind.go) continue ;; esac
    if grep -n "$call" "$f"; then
      echo "lint: $f calls $call; go through state.bind/bindDataset (bind.go)"
      fail=1
    fi
  done
done

# A field is "names, then the type, then nothing but a tag or comment": that
# leaves out parameters, results, locals (var/:=) and calls.
# An apply function (journal.go) runs on every live mutation, under the
# writer mutex, and on WAL replay: it rewrites definitions and bumps
# versions, and executes nothing. A preview renders on its next read.
if grep -nE '\.(plan|compile)\(\)|\.Execute\(' internal/catalog/journal.go; then
  echo "lint: internal/catalog/journal.go plans or executes a query; apply functions only bump versions"
  fail=1
fi

held='^[[:space:]]*([A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*[[:space:]]+)?\*engine\.Plan[[:space:]]*(`|//|$)'
held="$held"'|(\]|chan[[:space:]])[[:space:]]*\*engine\.Plan'
if find . -name '*.go' ! -name '*_test.go' ! -path './internal/engine/*' ! -path './.bench_build/*' |
  xargs grep -nE "$held" /dev/null; then
  echo "lint: a compiled plan is stored outside internal/engine; compile, execute once, drop it"
  fail=1
fi

if [ "$fail" -eq 0 ]; then
  echo "lint_bind: OK (names are bound, authorized and compiled in bind.go only; no plan is kept; journal.go executes nothing)"
fi
exit $fail
