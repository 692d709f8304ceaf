#!/bin/sh
# lint_bind.sh — grep lint: internal/catalog/bind.go is the one place that
# decides which dataset a name in SQL means and who must hold a grant on it.
# A statement path that calls engine.Compile or sqlparser.ReferencedTables
# itself has hand-rolled its own bind → authorize → compile prefix, and
# compilation can't catch that drift — so no other non-test file in the
# package may make either call.
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
      echo "lint: $f calls $call; go through bindLocked/compileLocked (bind.go)"
      fail=1
    fi
  done
done

if [ "$fail" -eq 0 ]; then
  echo "lint_bind: OK (names are bound, authorized and compiled in bind.go only)"
fi
exit $fail
